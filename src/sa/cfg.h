// Static CFG recovery for FV32 guest images — the zero-execution front end
// of the analyzer (src/sa). Reuses the src/vm decoder so the static view
// can never disagree with the interpreter about instruction boundaries or
// branch targets.
//
// Recovery is recursive descent from the image entry point and every export
// (both are externally reachable), plus any indirect-branch targets the
// dataflow pass has already resolved; a linear sweep over the bytes no
// recovered block covers then yields dead/unreachable code candidates —
// including embedded payload blobs that only ever run after an injection
// copies them somewhere executable.
#pragma once

#include <map>
#include <vector>

#include "os/image.h"
#include "vm/isa.h"

namespace faros::sa {

enum class EdgeKind : u8 {
  kFall = 0,  // sequential successor (incl. past calls/syscalls)
  kTaken,     // direct jump / taken conditional branch
  kCall,      // call target (kCall, or a resolved kCallr)
  kIndirect,  // resolved kJr target
};

struct Edge {
  u32 target = 0;  // successor block start va
  EdgeKind kind = EdgeKind::kFall;
  bool operator==(const Edge&) const = default;
};

struct BasicBlock {
  u32 start = 0;  // va of the first instruction
  u32 end = 0;    // va one past the last instruction
  std::vector<vm::Instruction> insns;
  std::vector<Edge> succs;

  u32 insn_va(size_t i) const {
    return start + static_cast<u32>(i) * vm::kInsnSize;
  }
  const vm::Instruction& terminator() const { return insns.back(); }
};

/// One kJr/kCallr site. Unresolved sites are the static blind spot of the
/// recovered CFG.
struct IndirectSite {
  u32 va = 0;
  vm::Opcode op = vm::Opcode::kJr;
  bool resolved = false;
  u32 target = 0;  // valid when resolved
};

/// A maximal run of decodable instructions that no recovered block covers
/// (linear-sweep phase): dead code, or a payload staged as data.
struct DeadRegion {
  u32 start = 0;           // va
  u32 insns = 0;           // valid decodes in the run
  u32 non_nop = 0;         // decodes that are not kNop
  bool has_terminator = false;  // run contains a block-ending opcode
};

struct Cfg {
  u32 base = 0;   // image base va
  u32 size = 0;   // blob size in bytes
  u32 entry = 0;  // entry va
  /// Reachable blocks, keyed by start va. Every block here was reached by
  /// descent from a root (entry, export, or resolved indirect target).
  std::map<u32, BasicBlock> blocks;
  std::vector<IndirectSite> indirects;   // ascending va
  std::vector<u32> invalid_sites;        // descent hit an undecodable insn
  std::vector<u32> escaping_targets;     // direct targets outside the blob
  std::vector<DeadRegion> dead_regions;  // ascending start va
  /// Export entry points accepted as descent roots (ascending, unique).
  /// Externally callable: the dataflow keeps them at the all-kVaries
  /// boundary even when they also have internal call sites.
  std::vector<u32> export_vas;
  u32 insn_count = 0;                    // instructions across all blocks

  bool contains(u32 va) const { return va >= base && va - base < size; }
  /// Block whose [start, end) covers `va`, or null.
  const BasicBlock* block_containing(u32 va) const;
};

/// Recovers the CFG. `resolved_indirects` maps a kJr/kCallr site va to its
/// proven target (fed back from the dataflow pass); those targets become
/// edges and descent roots.
Cfg recover_cfg(const os::Image& img,
                const std::map<u32, u32>& resolved_indirects = {});

}  // namespace faros::sa
