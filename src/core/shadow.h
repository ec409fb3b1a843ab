// Shadow state: per-physical-byte provenance for guest RAM, a per-process
// shadow register bank (byte-granular, 4 slots per 32-bit register), and a
// byte shadow of kernel-resident storage (files, loopback segments, atoms)
// so provenance survives a round trip through the file system (paper
// Figure 4: ... -> written into File 1 -> read by Process 3).
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <memory>
#include <unordered_map>

#include "common/hash.h"
#include "core/provenance.h"
#include "obs/obs.h"
#include "vm/isa.h"

namespace faros::core {

/// Provenance map over guest physical memory, laid out as a two-level,
/// lazily-allocated paged shadow (the software analogue of the dedicated
/// shadow structures hardware-DIFT designs use for cheap "no taint here"
/// checks):
///
///   directory:  frame number (pa >> 12)  ->  ShadowPage*
///   page:       flat ProvListId[4096] + a tainted-byte count
///
/// Pages exist only while they hold at least one tainted byte — the moment
/// the last tainted byte of a page is cleared (via set() or a partial
/// clear_range()) the page is dropped, so long replays cannot accumulate
/// dead pages and page_tainted() never probes an allocated-but-empty
/// frame. The overwhelmingly common case — an access to memory nothing
/// ever tainted — resolves to a single directory probe (and usually just a
/// one-entry frame-cache compare). The per-page count makes "is this page
/// clean?" O(1), which the engine exploits to skip per-byte work entirely
/// on instruction fetch and on loads/stores that stay inside a clean page,
/// and it lets clear_range()/frame recycling drop whole pages instead of
/// erasing byte by byte.
class ShadowMemory {
 public:
  static constexpr u32 kPageShift = 12;
  static constexpr u32 kPageBytes = 1u << kPageShift;  // == vm::kPageSize
  static constexpr u32 kPageMask = kPageBytes - 1;

  struct Page {
    std::array<ProvListId, kPageBytes> prov{};
    u32 tainted = 0;  // nonzero entries in prov
    /// Stamp of the last mutation, drawn from a store-wide monotonic
    /// epoch. Epochs are never reused (a recreated page gets a fresh,
    /// larger stamp), so "same version" safely means "bytes unchanged" —
    /// the invariant the engine's fetch-provenance cache relies on.
    u64 version = 0;
  };

  /// Hot-path read (cache-accelerated). A const overload below serves
  /// concurrent analyst readers without touching the frame cache.
  ProvListId get(PAddr pa) {
    Page* p = lookup(pa >> kPageShift);
    return p ? p->prov[pa & kPageMask] : kEmptyProv;
  }

  ProvListId get(PAddr pa) const {
    auto it = dir_.find(pa >> kPageShift);
    return it == dir_.end() ? kEmptyProv
                            : it->second->prov[pa & kPageMask];
  }

  void set(PAddr pa, ProvListId id) {
    const u64 frame = pa >> kPageShift;
    Page* p = lookup(frame);
    if (!p) {
      if (id == kEmptyProv) return;  // clearing an untracked byte: no-op
      p = add_page(frame);
    }
    ProvListId& slot = p->prov[pa & kPageMask];
    if (slot == id) return;  // no semantic change: skip the version bump
    if (slot == kEmptyProv) {
      ++p->tainted;
      ++total_tainted_;
    } else if (id == kEmptyProv) {
      --p->tainted;
      --total_tainted_;
      if (p->tainted == 0) {
        // Last tainted byte of the page cleared: drop the page rather than
        // leaving an all-empty Page resident forever. The version stamp
        // dies with the page; a recreated page draws a fresh, strictly
        // larger epoch, so the never-reused-stamp invariant holds.
        drop_page(frame);
        ++epoch_;
        return;
      }
    }
    slot = id;
    p->version = ++epoch_;
  }

  /// set(pa + i, id) for every i < n, for a run inside one page and a
  /// non-empty `id`: the same final state, counters and mutation stamps as
  /// the n single-byte sets, with one directory probe.
  void fill(PAddr pa, u32 n, ProvListId id) {
    if (n == 0) return;
    const u64 frame = pa >> kPageShift;
    const u32 off = static_cast<u32>(pa & kPageMask);
    assert(id != kEmptyProv && off + n <= kPageBytes);
    Page* p = lookup(frame);
    frame_hit_.inc(n - 1);  // the n-1 later probes would hit the cache
    if (!p) p = add_page(frame);
    u32 changed = 0;
    u32 fresh = 0;  // previously empty bytes
    for (u32 o = off; o < off + n; ++o) {
      ProvListId& slot = p->prov[o];
      if (slot == id) continue;
      fresh += slot == kEmptyProv;
      slot = id;
      ++changed;
    }
    p->tainted += fresh;
    total_tainted_ += fresh;
    if (changed == 0) return;
    epoch_ += changed;  // one stamp per changed byte, as set() draws
    p->version = epoch_;
  }

  /// O(1): does the page containing `pa` hold any tainted byte?
  bool page_tainted(PAddr pa) {
    Page* p = lookup(pa >> kPageShift);
    return p && p->tainted != 0;
  }

  /// Mutation stamp of the page containing `pa` (0 when no page exists).
  /// Two equal nonzero stamps guarantee the page bytes are unchanged.
  u64 page_version(PAddr pa) {
    Page* p = lookup(pa >> kPageShift);
    return p ? p->version : 0;
  }

  /// Any tainted byte in [pa, pa+len)? Assumes the range is physically
  /// contiguous (instruction fetch); O(pages overlapped), i.e. one or two
  /// probes for an 8-byte fetch. A range running past the top of the
  /// physical address space is clamped to it (no u64 wraparound).
  bool range_tainted(PAddr pa, u64 len) {
    if (len == 0) return false;
    u64 f0 = pa >> kPageShift;
    u64 f1 = last_byte(pa, len) >> kPageShift;
    for (u64 f = f0; f <= f1; ++f) {
      Page* p = lookup(f);
      if (p && p->tainted != 0) return true;
    }
    return false;
  }

  void clear_range(PAddr pa, u64 len) {
    if (len == 0) return;
    const PAddr last = last_byte(pa, len);
    u64 f0 = pa >> kPageShift;
    u64 f1 = last >> kPageShift;
    for (u64 f = f0; f <= f1; ++f) {
      auto it = dir_.find(f);
      if (it == dir_.end()) continue;
      u32 lo = f == f0 ? static_cast<u32>(pa & kPageMask) : 0;
      u32 hi = f == f1 ? static_cast<u32>(last & kPageMask) + 1 : kPageBytes;
      Page& p = *it->second;
      if (lo == 0 && hi == kPageBytes) {
        total_tainted_ -= p.tainted;  // page-level drop, no per-byte walk
      } else {
        bool changed = false;
        for (u32 o = lo; o < hi && p.tainted != 0; ++o) {
          ProvListId& slot = p.prov[o];
          if (slot != kEmptyProv) {
            slot = kEmptyProv;
            --p.tainted;
            --total_tainted_;
            changed = true;
          }
        }
        if (p.tainted != 0) {
          if (changed) p.version = ++epoch_;
          continue;
        }
      }
      if (cache_key_ == f + 1) cache_page_ = nullptr;
      dir_.erase(it);
      page_drop_.inc();
      ++epoch_;
    }
  }

  void clear() {
    page_drop_.inc(dir_.size());
    if (!dir_.empty()) ++epoch_;
    dir_.clear();
    total_tainted_ = 0;
    cache_key_ = 0;
    cache_page_ = nullptr;
  }

  /// The engine-wide elision epoch (DESIGN.md §3g): the mutation counter
  /// behind the page stamps, which also moves at every page drop and, via
  /// ShadowRegisters, whenever a register byte turns tainted. It starts at
  /// 1, so a block grant of 0 never matches it. Two equal readings mean no
  /// shadow byte changed and no register byte became tainted in between.
  u64* epoch() { return &epoch_; }

  /// Binds the hot-path counters to `sink` (null unbinds). Counting sites:
  /// the frame-cache probe and page allocation/drop.
  void bind_obs(obs::MetricSink* sink) {
    frame_hit_ = {sink, obs::Ctr::kShadowFrameCacheHit};
    frame_miss_ = {sink, obs::Ctr::kShadowFrameCacheMiss};
    page_alloc_ = {sink, obs::Ctr::kShadowPageAlloc};
    page_drop_ = {sink, obs::Ctr::kShadowPageDrop};
  }

  /// Number of tainted bytes (the overtainting metric of the ablation
  /// bench). O(1): maintained incrementally.
  u64 tainted_bytes() const { return total_tainted_; }

  /// Number of shadow pages currently allocated (residency metric).
  u64 pages() const { return dir_.size(); }

  /// Calls fn(PAddr, ProvListId) for every tainted byte. Page order is
  /// unspecified (directory order); offsets within a page are ascending.
  template <typename Fn>
  void for_each_tainted(Fn&& fn) const {
    for (const auto& [frame, page] : dir_) {
      PAddr base = static_cast<PAddr>(frame) << kPageShift;
      u32 remaining = page->tainted;
      for (u32 o = 0; o < kPageBytes && remaining != 0; ++o) {
        ProvListId id = page->prov[o];
        if (id != kEmptyProv) {
          fn(base + o, id);
          --remaining;
        }
      }
    }
  }

 private:
  /// Last byte of [pa, pa+len), clamped to the top of the address space so
  /// a range ending at (or crossing) 2^64 never wraps to a small frame
  /// number and silently skips — the end-of-RAM recycle case. len >= 1.
  static PAddr last_byte(PAddr pa, u64 len) {
    PAddr last = pa + (len - 1);
    return last < pa ? ~static_cast<PAddr>(0) : last;
  }

  /// Directory probe through a one-entry frame cache. Caching "no page"
  /// (nullptr) is deliberate: a clean-memory workload then resolves every
  /// fetch/load/store probe to a single integer compare. cache_key_ holds
  /// frame+1 so 0 means "empty cache".
  Page* lookup(u64 frame) {
    if (cache_key_ == frame + 1) {
      frame_hit_.inc();
      return cache_page_;
    }
    frame_miss_.inc();
    auto it = dir_.find(frame);
    Page* p = it == dir_.end() ? nullptr : it->second.get();
    cache_key_ = frame + 1;
    cache_page_ = p;
    return p;
  }

  Page* add_page(u64 frame) {
    auto& slot = dir_[frame];
    slot = std::make_unique<Page>();
    if (cache_key_ == frame + 1) cache_page_ = slot.get();
    page_alloc_.inc();
    return slot.get();
  }

  /// Frees the (empty) page of `frame`; downgrades a cached positive probe
  /// to a cached absence so the frame cache never dangles.
  void drop_page(u64 frame) {
    if (cache_key_ == frame + 1) cache_page_ = nullptr;
    dir_.erase(frame);
    page_drop_.inc();
  }

  // unique_ptr values keep Page* stable across directory rehash, so the
  // frame cache survives inserts of other frames.
  std::unordered_map<u64, std::unique_ptr<Page>> dir_;
  u64 total_tainted_ = 0;
  u64 epoch_ = 1;  // monotonic mutation counter; never reset (no ABA)
  u64 cache_key_ = 0;  // frame+1 of the cached probe; 0 = invalid
  Page* cache_page_ = nullptr;

  // obs counters (no-ops until bind_obs); see the class comment in obs.h
  // for the branch-on-null cost model.
  obs::Counter frame_hit_;
  obs::Counter frame_miss_;
  obs::Counter page_alloc_;
  obs::Counter page_drop_;
};

/// Byte-granular register shadow for one CPU context (one process).
class ShadowRegisters {
 public:
  /// `epoch` is the engine's elision epoch (ShadowMemory::epoch()), moved
  /// whenever a byte of this bank turns from empty to tainted.
  explicit ShadowRegisters(u64* epoch) : epoch_(epoch) {}

  ProvListId get(u8 reg, u8 byte) const { return regs_[reg][byte]; }
  void set(u8 reg, u8 byte, ProvListId id) {
    ProvListId& slot = regs_[reg][byte];
    if (slot == kEmptyProv && id != kEmptyProv) ++*epoch_;
    tainted_ += static_cast<u32>(id != kEmptyProv) -
                static_cast<u32>(slot != kEmptyProv);
    slot = id;
  }

  void clear_reg(u8 reg) {
    for (auto& b : regs_[reg]) {
      if (b != kEmptyProv) --tainted_;
      b = kEmptyProv;
    }
  }

  void set_all(u8 reg, ProvListId id) {
    for (auto& b : regs_[reg]) {
      if (b == kEmptyProv && id != kEmptyProv) ++*epoch_;
      tainted_ += static_cast<u32>(id != kEmptyProv) -
                  static_cast<u32>(b != kEmptyProv);
      b = id;
    }
  }

  /// O(1): no register byte carries provenance. The block-elision guard's
  /// fast accept: a clean bank has no tainted register for any footprint.
  bool clean() const { return tainted_ == 0; }

  /// Does any register in `mask` (bit r = register r) carry provenance?
  bool any_tainted(u16 mask) const {
    for (; mask != 0; mask &= mask - 1) {
      if (reg_tainted(static_cast<u8>(std::countr_zero(mask)))) return true;
    }
    return false;
  }

  /// clear_reg() on every register in `mask`.
  void clear_regs(u16 mask) {
    for (; mask != 0; mask &= mask - 1) {
      clear_reg(static_cast<u8>(std::countr_zero(mask)));
    }
  }

  /// Union of all four byte lists of a register (for ALU operand taint).
  ProvListId reg_union(u8 reg, ProvStore& store) const {
    const ProvListId* b = regs_[reg];
    if ((b[0] | b[1] | b[2] | b[3]) == kEmptyProv) return kEmptyProv;
    ProvListId acc = b[0];
    for (int i = 1; i < 4; ++i) acc = store.merge(acc, b[i]);
    return acc;
  }

  bool reg_tainted(u8 reg) const {
    const ProvListId* b = regs_[reg];
    return (b[0] | b[1] | b[2] | b[3]) != kEmptyProv;
  }

 private:
  ProvListId regs_[vm::kNumRegs][4] = {};
  u32 tainted_ = 0;  // nonzero entries in regs_
  u64* epoch_ = nullptr;
};

/// Byte provenance of kernel-resident storage, keyed exactly by (object
/// id, offset): file contents by file id, so provenance survives a round
/// trip through the file system; in-flight loopback segments by segment
/// id, the socket analogue; global atoms by atom id.
class StorageShadow {
 public:
  ProvListId get(u64 id, u32 offset) const {
    auto it = map_.find({id, offset});
    return it == map_.end() ? kEmptyProv : it->second;
  }

  void set(u64 id, u32 offset, ProvListId prov) {
    if (prov == kEmptyProv) {
      if (map_.erase({id, offset}) && --per_id_[id] == 0) per_id_.erase(id);
    } else if (map_.insert_or_assign({id, offset}, prov).second) {
      ++per_id_[id];
    }
  }

  u64 tainted_bytes() const { return map_.size(); }

  /// O(1): does object `id` hold any byte with provenance? When it holds
  /// none, every get(id, ·) is kEmptyProv and a caller may skip the
  /// per-byte lookups (image mapping does, for the common never-written
  /// file).
  bool any(u64 id) const { return per_id_.contains(id); }

 private:
  struct Key {
    u64 id = 0;
    u32 offset = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(hash_combine(k.id, k.offset));
    }
  };

  std::unordered_map<Key, ProvListId, KeyHash> map_;
  std::unordered_map<u64, u32> per_id_;  // non-empty bytes per id, no zeros
};

}  // namespace faros::core
