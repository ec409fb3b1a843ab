#include "sa/cfg.h"

#include <algorithm>
#include <set>

namespace faros::sa {

const BasicBlock* Cfg::block_containing(u32 va) const {
  auto it = blocks.upper_bound(va);
  if (it == blocks.begin()) return nullptr;
  --it;
  const BasicBlock& b = it->second;
  return (va >= b.start && va < b.end) ? &b : nullptr;
}

namespace {

/// Builder state for one recovery run.
struct Recovery {
  const os::Image& img;
  Cfg cfg;
  std::set<u32> pending;       // block starts awaiting decode
  std::set<u32> invalid_set;   // dedup for invalid_sites
  std::set<u32> escaped_set;   // dedup for escaping_targets

  explicit Recovery(const os::Image& image) : img(image) {
    cfg.base = img.base_va;
    cfg.size = static_cast<u32>(img.blob.size());
    cfg.entry = img.entry_va();
  }

  bool aligned(u32 va) const { return (va - cfg.base) % vm::kInsnSize == 0; }

  void note_invalid(u32 va) {
    if (invalid_set.insert(va).second) cfg.invalid_sites.push_back(va);
  }

  void note_escape(u32 va) {
    if (escaped_set.insert(va).second) cfg.escaping_targets.push_back(va);
  }

  /// Queues `va` as a block start if it is a plausible code address;
  /// otherwise records why it was rejected.
  void add_root(u32 va) {
    if (!cfg.contains(va)) {
      note_escape(va);
      return;
    }
    if (!aligned(va)) {
      note_invalid(va);
      return;
    }
    pending.insert(va);
  }

  /// Splits the block containing `va` so a block starts exactly at `va`.
  /// Returns false if `va` is not a clean instruction boundary inside an
  /// existing block.
  bool split_at(u32 va) {
    auto it = cfg.blocks.upper_bound(va);
    if (it == cfg.blocks.begin()) return false;
    --it;
    BasicBlock& head = it->second;
    if (va <= head.start || va >= head.end) return false;
    size_t keep = (va - head.start) / vm::kInsnSize;
    BasicBlock tail;
    tail.start = va;
    tail.end = head.end;
    tail.insns.assign(head.insns.begin() + static_cast<long>(keep),
                      head.insns.end());
    tail.succs = std::move(head.succs);
    head.insns.resize(keep);
    head.end = va;
    head.succs = {Edge{va, EdgeKind::kFall}};
    cfg.blocks.emplace(va, std::move(tail));
    return true;
  }

  void decode_block(u32 start, const std::map<u32, u32>& resolved) {
    if (cfg.blocks.count(start)) return;
    if (split_at(start)) return;
    BasicBlock blk;
    blk.start = start;
    u32 va = start;
    for (;;) {
      if (va != start && cfg.blocks.count(va)) {
        // Ran into an existing block: end with a fall edge into it.
        blk.succs.push_back(Edge{va, EdgeKind::kFall});
        break;
      }
      u32 off = va - cfg.base;
      if (off + vm::kInsnSize > cfg.size) {
        // Decoding ran off the end of the blob.
        note_invalid(va);
        break;
      }
      auto insn = vm::decode(
          ByteSpan(img.blob.data() + off, vm::kInsnSize));
      if (!insn) {
        note_invalid(va);
        break;
      }
      blk.insns.push_back(*insn);
      u32 next = va + vm::kInsnSize;
      if (!vm::ends_block(insn->op)) {
        va = next;
        continue;
      }
      // Terminator: attach successor edges.
      switch (insn->op) {
        case vm::Opcode::kJmp:
          add_edge(blk, *vm::direct_target(*insn, va), EdgeKind::kTaken);
          break;
        case vm::Opcode::kBeq:
        case vm::Opcode::kBne:
        case vm::Opcode::kBlt:
        case vm::Opcode::kBge:
        case vm::Opcode::kBltu:
        case vm::Opcode::kBgeu:
          add_edge(blk, *vm::direct_target(*insn, va), EdgeKind::kTaken);
          add_edge(blk, next, EdgeKind::kFall);
          break;
        case vm::Opcode::kCall:
          add_edge(blk, *vm::direct_target(*insn, va), EdgeKind::kCall);
          add_edge(blk, next, EdgeKind::kFall);
          break;
        case vm::Opcode::kJr:
        case vm::Opcode::kCallr: {
          IndirectSite site{va, insn->op, false, 0};
          auto res = resolved.find(va);
          if (res != resolved.end()) {
            site.resolved = true;
            site.target = res->second;
            add_edge(blk, res->second,
                     insn->op == vm::Opcode::kCallr ? EdgeKind::kCall
                                                    : EdgeKind::kIndirect);
          }
          cfg.indirects.push_back(site);
          if (insn->op == vm::Opcode::kCallr) {
            add_edge(blk, next, EdgeKind::kFall);
          }
          break;
        }
        case vm::Opcode::kSyscall:
        case vm::Opcode::kBrk:
          // Both return to the next instruction (brk delivers a trap the
          // kernel may survive).
          add_edge(blk, next, EdgeKind::kFall);
          break;
        case vm::Opcode::kRet:
        case vm::Opcode::kHalt:
        default:
          break;  // no static successors
      }
      break;
    }
    blk.end = blk.start + static_cast<u32>(blk.insns.size()) * vm::kInsnSize;
    if (blk.insns.empty()) return;  // first byte undecodable: nothing to keep
    cfg.blocks.emplace(blk.start, std::move(blk));
  }

  void add_edge(BasicBlock& blk, u32 target, EdgeKind kind) {
    if (!cfg.contains(target)) {
      note_escape(target);
      return;
    }
    if (!aligned(target)) {
      note_invalid(target);
      return;
    }
    blk.succs.push_back(Edge{target, kind});
    pending.insert(target);
  }

  /// Linear sweep over bytes no block covers: record maximal decodable runs
  /// as dead-code candidates.
  void sweep() {
    u32 va = cfg.base;
    const u32 limit = cfg.base + cfg.size;
    DeadRegion run;
    auto flush = [&] {
      if (run.insns > 0) cfg.dead_regions.push_back(run);
      run = DeadRegion{};
    };
    while (va + vm::kInsnSize <= limit) {
      if (const BasicBlock* b = cfg.block_containing(va)) {
        flush();
        va = b->end;
        continue;
      }
      auto insn =
          vm::decode(ByteSpan(img.blob.data() + (va - cfg.base),
                              vm::kInsnSize));
      if (!insn) {
        flush();
        va += vm::kInsnSize;
        continue;
      }
      if (run.insns == 0) run.start = va;
      ++run.insns;
      if (insn->op != vm::Opcode::kNop) ++run.non_nop;
      if (vm::ends_block(insn->op)) run.has_terminator = true;
      va += vm::kInsnSize;
    }
    flush();
  }
};

}  // namespace

Cfg recover_cfg(const os::Image& img,
                const std::map<u32, u32>& resolved_indirects) {
  Recovery rec(img);
  if (rec.cfg.size >= vm::kInsnSize) {
    rec.add_root(img.entry_va());
    for (const auto& exp : img.exports) {
      u32 va = img.base_va + exp.offset;
      rec.add_root(va);
      if (rec.cfg.contains(va) && rec.aligned(va)) {
        rec.cfg.export_vas.push_back(va);
      }
    }
    for (const auto& [site, target] : resolved_indirects) {
      (void)site;
      rec.add_root(target);
    }
    while (!rec.pending.empty()) {
      u32 va = *rec.pending.begin();
      rec.pending.erase(rec.pending.begin());
      rec.decode_block(va, resolved_indirects);
    }
    rec.sweep();
  }
  std::sort(rec.cfg.indirects.begin(), rec.cfg.indirects.end(),
            [](const IndirectSite& a, const IndirectSite& b) {
              return a.va < b.va;
            });
  std::sort(rec.cfg.invalid_sites.begin(), rec.cfg.invalid_sites.end());
  std::sort(rec.cfg.escaping_targets.begin(), rec.cfg.escaping_targets.end());
  std::sort(rec.cfg.export_vas.begin(), rec.cfg.export_vas.end());
  rec.cfg.export_vas.erase(
      std::unique(rec.cfg.export_vas.begin(), rec.cfg.export_vas.end()),
      rec.cfg.export_vas.end());
  for (const auto& [start, blk] : rec.cfg.blocks) {
    (void)start;
    rec.cfg.insn_count += static_cast<u32>(blk.insns.size());
  }
  return rec.cfg;
}

}  // namespace faros::sa
