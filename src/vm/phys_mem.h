// Guest physical memory plus a simple frame allocator. Physical addresses
// are the canonical key for the DIFT shadow memory, exactly as in
// PANDA's taint2.
//
// One backing mode: copy-on-write over an immutable, sparse MemImage.
// Every frame initially aliases the image, and the first write to a frame
// faults it into private arena storage. A cold-booted machine is a clone
// of the all-zero image (every frame aliases one shared zero frame), so
// fresh RAM costs a pointer table, not a zero-filled buffer; a snapshot
// clone is a clone of a frozen post-boot image (see os/snapshot.h).
// Clones never touch the shared image, so any number of farm jobs can run
// against one booted-guest snapshot concurrently.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace faros::vm {

inline constexpr u32 kPageSize = 4096;
inline constexpr u32 kPageShift = 12;

constexpr u32 page_floor(u32 addr) { return addr & ~(kPageSize - 1); }
constexpr u32 page_offset(u32 addr) { return addr & (kPageSize - 1); }
constexpr u32 page_ceil(u32 addr) {
  return (addr + kPageSize - 1) & ~(kPageSize - 1);
}

/// Immutable frozen RAM image, shared read-only between the snapshot and
/// every clone built over it. Sparse: a per-frame pointer table plus owned
/// storage for the frames holding a non-zero byte only; every all-zero
/// frame aliases one shared, read-only zero frame. Held alive by
/// shared_ptr for as long as any clone exists.
class MemImage {
 public:
  /// The all-zero image of `size_bytes` (rounded up to whole frames): what
  /// a cold-booted machine's RAM starts as.
  static std::shared_ptr<const MemImage> zeros(u32 size_bytes);

  u32 size() const { return num_frames() << kPageShift; }
  u32 num_frames() const { return static_cast<u32>(frames_.size()); }
  u8 read8(PAddr pa) const {
    return frames_[pa >> kPageShift][page_offset(static_cast<u32>(pa))];
  }
  /// Frames with storage of their own (the rest alias the zero frame).
  u32 owned_frames() const { return owned_frames_; }

 private:
  friend class PhysMem;
  std::vector<const u8*> frames_;
  std::unique_ptr<u8[]> storage_;  // owned_frames_ contiguous frames
  u32 owned_frames_ = 0;
};

/// Guest RAM. All reads/writes are bounds checked; the VM never maps
/// beyond the configured size.
class PhysMem {
 public:
  /// Observer invoked with the written byte range when any byte of a
  /// *watched* frame is written, before the write lands. The block-
  /// translation cache watches frames holding translated code so
  /// self-modifying code evicts stale blocks (and only the blocks the
  /// range actually overlaps — data sharing a page with code must not
  /// thrash the cache); unwatched frames pay one flag load per store.
  using CodeWriteObserver = std::function<void(PAddr pa, u32 len)>;

  /// Copy-on-write statistics. Plain counters: src/vm keeps no obs
  /// dependency, so the farm folds these into the metrics stream the same
  /// way it folds BlockCacheStats.
  struct CowStats {
    bool cow = false;        // constructed as a snapshot clone
    u64 cow_faults = 0;      // private frame copies on first write
    u64 shared_frames = 0;   // frames still backed by the image
  };

  /// Cold RAM: a clone of the all-zero image. Reports cow == false, since
  /// its faults are first touches of fresh RAM, not snapshot sharing.
  explicit PhysMem(u32 size_bytes);
  /// Snapshot clone: every frame aliases `base` until first write.
  explicit PhysMem(std::shared_ptr<const MemImage> base);

  // rtab_/wtab_ hold raw pointers into the image / the arena; a copy
  // would alias another instance's storage. Moves are fine (vector and
  // chunk buffers are stable across moves).
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;
  PhysMem(PhysMem&&) = default;
  PhysMem& operator=(PhysMem&&) = default;

  u32 size() const { return size_; }
  u32 num_frames() const { return size_ / kPageSize; }

  u8 read8(PAddr pa) const;
  u16 read16(PAddr pa) const;
  u32 read32(PAddr pa) const;
  void write8(PAddr pa, u8 v);
  void write16(PAddr pa, u16 v);
  void write32(PAddr pa, u32 v);

  /// Bulk accessors used by the kernel's taint-aware copy primitives.
  void read(PAddr pa, MutByteSpan out) const;
  void write(PAddr pa, ByteSpan data);

  bool contains(PAddr pa, u32 len = 1) const {
    return pa + len <= size_ && pa + len >= pa;
  }

  /// Zero-copy view of [pa, pa+len). The range must stay within one frame
  /// (frames are not contiguous); the only caller is the instruction
  /// decoder, whose 8-byte-aligned fetches never cross.
  ByteSpan span(PAddr pa, u32 len) const;

  /// Freezes the RAM contents as an immutable sparse image. Copies only the
  /// frames that no longer alias the zero frame and hold a non-zero byte,
  /// so the cost is O(written frames); os::capture_snapshot uses it to
  /// freeze a freshly booted guest.
  std::shared_ptr<const MemImage> freeze() const;

  const CowStats& cow_stats() const { return stats_; }

  void set_code_write_observer(CodeWriteObserver obs) {
    on_code_write_ = std::move(obs);
  }

  /// Watches byte offsets [lo, hi) of the frame (hi <= kPageSize). Repeated
  /// calls widen the watched range to the union — it never shrinks until
  /// unwatch_frame. Writes outside the range never fire the observer, so
  /// data sharing a page with translated code costs one compare per store.
  void watch_frame(PAddr frame_base, u32 lo, u32 hi) {
    u32& w = watched_[frame_base >> kPageShift];
    if (w) {
      lo = std::min(lo, w >> 16);
      hi = std::max(hi, (w & 0xffffu) - 1);
    }
    // hi is stored biased by +1 so no real range packs to the 0
    // "unwatched" sentinel (a watch with lo == 0 has zero high bits, and
    // an unbiased hi could make the whole word 0 — silently dropping an
    // SMC watch on byte 0 of a frame).
    w = (lo << 16) | (hi + 1);
  }
  void unwatch_frame(PAddr frame_base) {
    watched_[frame_base >> kPageShift] = 0;
  }
  bool frame_watched(PAddr frame_base) const {
    return watched_[frame_base >> kPageShift] != 0;
  }

  /// Machine-wide page-table epoch: AddressSpace bumps it on every page-
  /// table write, so an interpreter's TLB stays valid while it is unchanged
  /// (CR3 recycling and shared second-level tables both imply a write).
  u64 pt_epoch() const { return pt_epoch_; }
  void bump_pt_epoch() { ++pt_epoch_; }

 private:
  /// Out-of-line slow path: fires the observer once with [pa, pa+len) when
  /// the write overlaps at least one frame's watched byte range.
  void notify_code_write(PAddr pa, u32 len);

  /// First write to a shared frame: copy it into private arena storage.
  u8* cow_fault(u64 frame);
  u8* arena_alloc();

  /// Store one byte without the watch check (callers notify once for the
  /// whole access, matching the observer's [pa, pa+len) contract).
  void store8(PAddr pa, u8 v) {
    const u64 f = pa >> kPageShift;
    u8* p = wtab_[f];
    if (!p) p = cow_fault(f);
    p[page_offset(static_cast<u32>(pa))] = v;
  }

  u32 size_ = 0;
  std::shared_ptr<const MemImage> base_;  // the image unwritten frames alias
  // Per-frame pointers: rtab_ is where reads resolve (shared image, zero
  // frame or private copy); wtab_ is null while the frame is still shared
  // — a write through a null entry takes the COW fault, so the shared
  // image and the zero frame are never written through.
  std::vector<const u8*> rtab_;
  std::vector<u8*> wtab_;
  // Private frame storage for COW faults, bump-allocated in chunks.
  static constexpr u32 kFramesPerChunk = 64;
  std::vector<std::unique_ptr<u8[]>> arena_;
  u32 arena_used_ = kFramesPerChunk;
  CowStats stats_;
  // One packed watch range per frame: 0 = unwatched, else
  // (lo << 16) | (hi + 1) byte offsets (hi exclusive, <= kPageSize; the +1
  // bias keeps every real range distinct from the sentinel).
  std::vector<u32> watched_;
  CodeWriteObserver on_code_write_;
  u64 pt_epoch_ = 0;
};

/// Bitmap frame allocator over guest RAM. Deterministic: always returns the
/// lowest free frame, which record/replay depends on.
class FrameAllocator {
 public:
  /// Observer invoked whenever a frame is freed. The FAROS shadow memory
  /// subscribes so stale taint never survives frame recycling.
  using FreeObserver = std::function<void(PAddr frame_base)>;

  /// Value snapshot of the allocator (os/snapshot.h freezes one per boot
  /// image; restore() puts a clone's allocator into the exact post-boot
  /// state so frame allocation stays deterministic vs a cold boot).
  struct State {
    std::vector<bool> used;
    u32 free_count = 0;
    u32 search_hint = 0;
  };

  explicit FrameAllocator(u32 num_frames);

  void set_free_observer(FreeObserver obs) { on_free_ = std::move(obs); }

  /// Allocates one 4 KiB frame; returns its physical base address.
  Result<PAddr> alloc();
  /// Allocates `n` frames (not necessarily contiguous) into `out`.
  Result<void> alloc_many(u32 n, std::vector<PAddr>& out);
  void free(PAddr frame_base);

  u32 free_frames() const { return free_count_; }
  u32 total_frames() const { return static_cast<u32>(used_.size()); }

  /// Marks a frame as permanently reserved (e.g. frame 0, boot structures).
  void reserve(PAddr frame_base);

  State state() const { return State{used_, free_count_, search_hint_}; }
  void restore(const State& s) {
    used_ = s.used;
    free_count_ = s.free_count;
    search_hint_ = s.search_hint;
  }

 private:
  std::vector<bool> used_;
  u32 free_count_ = 0;
  u32 search_hint_ = 0;
  FreeObserver on_free_;
};

}  // namespace faros::vm
