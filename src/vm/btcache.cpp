#include "vm/btcache.h"

#include <algorithm>

namespace faros::vm {

BlockCache::BlockCache(PhysMem& mem) : mem_(&mem) {
  mem_->set_code_write_observer(
      [this](PAddr pa, u32 len) { on_code_write(pa, len); });
}

BlockCache::~BlockCache() {
  for (const auto& [frame, keys] : by_frame_) {
    (void)keys;
    mem_->unwatch_frame(frame << kPageShift);
  }
  mem_->set_code_write_observer(nullptr);
}

TranslatedBlock* BlockCache::lookup(PAddr cr3, VAddr va) {
  const u64 key = key_of(cr3, va);
  Front& f = front_[(va / kInsnSize) & (kFrontSize - 1)];
  if (f.key == key && f.epoch == evict_epoch_) {
    ++stats_.hits;
    return f.block;
  }
  auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  f = Front{key, evict_epoch_, &it->second};
  ++stats_.hits;
  return &it->second;
}

TranslatedBlock* BlockCache::translate(PAddr cr3, VAddr va, PAddr pa) {
  if (map_.size() >= kMaxBlocks) flush_all();
  TranslatedBlock b;
  b.cr3 = cr3;
  b.start_va = va;
  b.start_pa = pa;
  b.elidable_ops = true;
  // Instructions are 8-byte aligned, so the body walks to the page end at
  // most; a block never crosses into the next frame.
  const PAddr page_end = page_floor(static_cast<u32>(pa)) + kPageSize;
  for (PAddr p = pa; p + kInsnSize <= page_end; p += kInsnSize) {
    auto d = decode(mem_->span(p, kInsnSize));
    if (!d) break;  // truncate: the fall-through traps exactly like per-insn
    b.insns.push_back(*d);
    // kSyscall ends the block, so passing here makes it the final insn.
    if (!taint_inert(d->op) && d->op != Opcode::kSyscall) {
      b.elidable_ops = false;
    }
    const RegFootprint f = taint_footprint(*d);
    b.reads |= f.reads & ~b.writes;
    b.writes |= f.writes;
    if (ends_block(d->op)) break;
  }
  if (b.insns.empty()) return nullptr;
  ++stats_.translated;
  const u64 key = key_of(cr3, va);
  const u64 frame = pa >> kPageShift;
  const u32 lo = page_offset(static_cast<u32>(pa));
  const u32 hi = lo + static_cast<u32>(b.insns.size()) * kInsnSize;
  auto [it, inserted] = map_.insert_or_assign(key, std::move(b));
  if (inserted) by_frame_[frame].push_back(key);
  mem_->watch_frame(frame << kPageShift, lo, hi);
  return &it->second;
}

void BlockCache::forget_plugin_state() {
  for (auto& [key, b] : map_) {
    (void)key;
    b.hint_checked = false;
    b.hint_elidable = false;
    b.memo_version = 0;
    b.memo_count = 0;
  }
}

void BlockCache::evict_frame(PAddr frame_base, bool smc) {
  const u64 frame = frame_base >> kPageShift;
  auto it = by_frame_.find(frame);
  if (it != by_frame_.end()) {
    for (u64 key : it->second) {
      if (map_.erase(key)) {
        if (smc) ++stats_.evict_smc;
        else ++stats_.evict_cr3;
      }
    }
    by_frame_.erase(it);
    ++evict_epoch_;
  }
  mem_->unwatch_frame(frame_base);
}

void BlockCache::on_code_write(PAddr pa, u32 len) {
  const u64 first = pa >> kPageShift;
  const u64 last = (pa + len - 1) >> kPageShift;
  bool any = false;
  for (u64 frame = first; frame <= last; ++frame) {
    auto it = by_frame_.find(frame);
    if (it == by_frame_.end()) continue;
    auto& keys = it->second;
    for (size_t i = 0; i < keys.size();) {
      auto mit = map_.find(keys[i]);
      if (mit == map_.end()) {  // stale key left by evict_frame/flush races
        keys[i] = keys.back();
        keys.pop_back();
        continue;
      }
      const TranslatedBlock& b = mit->second;
      const PAddr b_end =
          b.start_pa + static_cast<u64>(b.insns.size()) * kInsnSize;
      if (b.start_pa < pa + len && pa < b_end) {
        map_.erase(mit);
        ++stats_.evict_smc;
        any = true;
        keys[i] = keys.back();
        keys.pop_back();
      } else {
        ++i;
      }
    }
    if (keys.empty()) {
      mem_->unwatch_frame(frame << kPageShift);
      by_frame_.erase(it);
    }
  }
  if (any) ++evict_epoch_;
}

void BlockCache::evict_cr3(PAddr cr3) {
  bool any = false;
  for (auto it = map_.begin(); it != map_.end();) {
    if (it->second.cr3 == cr3) {
      const u64 frame = it->second.start_pa >> kPageShift;
      auto fit = by_frame_.find(frame);
      if (fit != by_frame_.end()) {
        auto& keys = fit->second;
        keys.erase(std::remove(keys.begin(), keys.end(), it->first),
                   keys.end());
        if (keys.empty()) {
          mem_->unwatch_frame(frame << kPageShift);
          by_frame_.erase(fit);
        }
      }
      it = map_.erase(it);
      ++stats_.evict_cr3;
      any = true;
    } else {
      ++it;
    }
  }
  if (any) ++evict_epoch_;
}

void BlockCache::flush_all() {
  stats_.evict_cr3 += map_.size();
  map_.clear();
  for (const auto& [frame, keys] : by_frame_) {
    (void)keys;
    mem_->unwatch_frame(frame << kPageShift);
  }
  by_frame_.clear();
  ++evict_epoch_;
}

void BlockCache::evict_block(PAddr cr3, VAddr va) {
  const u64 key = key_of(cr3, va);
  auto it = map_.find(key);
  if (it == map_.end()) return;
  const u64 frame = it->second.start_pa >> kPageShift;
  auto fit = by_frame_.find(frame);
  if (fit != by_frame_.end()) {
    auto& keys = fit->second;
    keys.erase(std::remove(keys.begin(), keys.end(), key), keys.end());
    if (keys.empty()) {
      mem_->unwatch_frame(frame << kPageShift);
      by_frame_.erase(fit);
    }
  }
  map_.erase(it);
  ++stats_.evict_cr3;
  ++evict_epoch_;
}

}  // namespace faros::vm
