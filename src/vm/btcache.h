// Per-CR3 basic-block translation cache — the FV32 analogue of QEMU's TB
// cache. Blocks are decoded once into a predecoded straight-line form and
// re-executed from the cache on later visits; the interpreter dispatches
// whole blocks instead of fetch+decode per instruction.
//
// Correctness contract (what keeps cache-on byte-identical to cache-off):
//  - A block never crosses a page: instructions are 8-byte aligned and a
//    block's physical bytes live on the page of its first instruction, so
//    one fetch translation at block entry covers the whole body.
//  - Every frame holding translated code is *watched* in PhysMem; any write
//    into a watched frame (guest store, kernel copy-in, packet delivery)
//    evicts the blocks the written range overlaps before the bytes change
//    and bumps `evict_epoch`, which the interpreter checks between
//    instructions of the block being executed — self-modifying code that
//    rewrites its own block takes effect at exactly the next instruction,
//    as it would under per-instruction fetch. Writes into data bytes that
//    merely share a page with code evict nothing.
//  - The map key is (cr3, va) and each block records its start physical
//    address; the interpreter revalidates start_pa against the live fetch
//    translation at every block entry, so remaps and CR3 recycling can
//    never execute stale code. The kernel additionally evicts a process's
//    blocks at exit (evict_cr3) and on frame recycling (evict_frame).
//
// Blocks whose every opcode is taint_inert(), save a final kSyscall, are
// marked `elidable_ops`; the DIFT engine may approve running those through
// an uninstrumented fast body (see ExecHooks::try_elide_block in vm/cpu.h),
// deciding from the block's register footprint (`reads`/`writes`).
#pragma once

#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "vm/isa.h"
#include "vm/phys_mem.h"

namespace faros::vm {

struct TranslatedBlock {
  PAddr cr3 = 0;
  VAddr start_va = 0;
  PAddr start_pa = 0;
  /// Every instruction satisfies taint_inert(), except possibly a final
  /// kSyscall: offered for elision without a static proof.
  bool elidable_ops = false;
  /// Lazily resolved ExecHooks::block_elide_hint verdict for the other
  /// blocks (static summary proof, content-hash matched by the plugin).
  /// Reset naturally on retranslation: SMC evicts the block, and the fresh
  /// TranslatedBlock re-asks against the new bytes.
  bool hint_checked = false;
  bool hint_elidable = false;
  /// Block register footprint, the composition of every instruction's
  /// taint_footprint(): `reads` holds the registers read before the block
  /// writes them, `writes` every register some instruction overwrites.
  u16 reads = 0;
  u16 writes = 0;
  /// Memo owned by the attached plugin (the engine's tainted-fetch count
  /// for this block and the shadow page stamp it is valid for). A fresh
  /// block starts unset; Interpreter::set_hooks clears it when the plugin
  /// changes.
  u64 memo_version = 0;
  u32 memo_count = 0;
  std::vector<Instruction> insns;
};

/// Cache-lifetime totals, exported into the obs metrics stream by whoever
/// owns the machine (farm jobs, benches). Plain integers so src/vm keeps
/// zero dependency on src/obs.
struct BlockCacheStats {
  u64 translated = 0;   // blocks decoded into the cache
  u64 hits = 0;         // block dispatches served from the cache
  u64 evict_smc = 0;    // blocks evicted by a write into their code frame
  u64 evict_cr3 = 0;    // blocks evicted by process-exit / frame recycling
  /// Full-length dispatches, with a plugin attached, of blocks that hold an
  /// opcode no elision covers (neither elidable_ops nor hint-approved).
  u64 not_offered = 0;
};

class BlockCache {
 public:
  explicit BlockCache(PhysMem& mem);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Cached block starting at `va` in space `cr3`, or nullptr.
  TranslatedBlock* lookup(PAddr cr3, VAddr va);

  /// Decodes a new block at va/pa (pa = fetch translation of va, already
  /// validated by the caller). Stops at the first block-ending instruction,
  /// the page boundary, or the first undecodable slot (truncating — the
  /// fall-through re-enters the interpreter which raises the same trap the
  /// per-instruction path would). Returns nullptr when the *first* slot is
  /// undecodable; nothing is cached in that case.
  TranslatedBlock* translate(PAddr cr3, VAddr va, PAddr pa);

  /// Evicts every block whose bytes live in `frame_base`. `smc` selects the
  /// stat bucket: true for write-triggered eviction, false for lifecycle
  /// (frame recycling).
  void evict_frame(PAddr frame_base, bool smc);

  /// Write-triggered eviction (the PhysMem code-write observer): evicts
  /// only the blocks whose byte range overlaps [pa, pa+len). Writes into
  /// data that merely shares a page with translated code evict nothing and
  /// leave the epoch untouched — the common case for images whose
  /// read-write globals sit beside their text.
  void on_code_write(PAddr pa, u32 len);

  /// Evicts every block of an exiting address space.
  void evict_cr3(PAddr cr3);

  /// Evicts a single block (used when the interpreter finds the live fetch
  /// translation disagrees with the recorded start_pa, i.e. a remap).
  void evict_block(PAddr cr3, VAddr va);

  /// Monotonic counter bumped by every eviction. The interpreter snapshots
  /// it at block entry and re-checks between instructions: a change means
  /// the predecoded body may be stale (self-modifying code) and execution
  /// must re-enter the dispatch loop.
  u64 evict_epoch() const { return evict_epoch_; }

  size_t size() const { return map_.size(); }
  const BlockCacheStats& stats() const { return stats_; }
  void count_not_offered() { ++stats_.not_offered; }

  /// Drops what a plugin cached on the blocks (hint verdicts, memos): the
  /// interpreter's hooks changed, and another plugin must ask afresh.
  void forget_plugin_state();

  /// Longest block body; one page of 8-byte instructions.
  static constexpr u32 kMaxBlockInsns = kPageSize / kInsnSize;
  /// Whole-cache flush threshold (runaway JIT guests).
  static constexpr size_t kMaxBlocks = 1u << 16;

 private:
  static u64 key_of(PAddr cr3, VAddr va) { return (cr3 << 32) | va; }
  void flush_all();

  PhysMem* mem_;
  std::unordered_map<u64, TranslatedBlock> map_;
  // frame index -> keys of blocks whose bytes live there (one page => one
  // frame per block).
  std::unordered_map<u64, std::vector<u64>> by_frame_;
  u64 evict_epoch_ = 0;
  BlockCacheStats stats_;

  // Direct-mapped front cache over map_ lookups; entries are validated by
  // key + epoch so evictions (which bump the epoch) invalidate it wholesale.
  struct Front {
    u64 key = ~0ull;
    u64 epoch = ~0ull;
    TranslatedBlock* block = nullptr;
  };
  static constexpr u32 kFrontSize = 2048;  // power of two
  Front front_[kFrontSize];
};

}  // namespace faros::vm
