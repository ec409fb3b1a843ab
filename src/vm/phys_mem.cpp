#include "vm/phys_mem.h"

#include <cassert>
#include <cstring>

#include "common/strings.h"

namespace faros::vm {

namespace {
// The one frame every all-zero frame of every image aliases. Never written
// through: a frame aliasing it has a null wtab_ entry until its COW fault.
alignas(kPageSize) constexpr u8 kZeroFrame[kPageSize] = {};
}  // namespace

std::shared_ptr<const MemImage> MemImage::zeros(u32 size_bytes) {
  assert(size_bytes > 0);
  auto img = std::make_shared<MemImage>();
  img->frames_.assign(page_ceil(size_bytes) >> kPageShift, kZeroFrame);
  return img;
}

PhysMem::PhysMem(u32 size_bytes) : PhysMem(MemImage::zeros(size_bytes)) {
  stats_.cow = false;
}

PhysMem::PhysMem(std::shared_ptr<const MemImage> base)
    : base_(std::move(base)) {
  assert(base_ && base_->num_frames() > 0);
  size_ = base_->size();
  const u32 nf = num_frames();
  rtab_ = base_->frames_;
  wtab_.assign(nf, nullptr);
  watched_.assign(nf, 0);
  stats_.cow = true;
  stats_.shared_frames = nf;
}

u8* PhysMem::arena_alloc() {
  if (arena_used_ == kFramesPerChunk) {
    // cow_fault overwrites every frame it hands out, so skip the zeroing.
    arena_.push_back(std::make_unique_for_overwrite<u8[]>(
        static_cast<size_t>(kFramesPerChunk) * kPageSize));
    arena_used_ = 0;
  }
  return arena_.back().get() +
         static_cast<size_t>(arena_used_++) * kPageSize;
}

u8* PhysMem::cow_fault(u64 frame, bool copy) {
  u8* p = arena_alloc();
  if (copy) std::memcpy(p, rtab_[frame], kPageSize);
  rtab_[frame] = p;
  wtab_[frame] = p;
  ++stats_.cow_faults;
  --stats_.shared_frames;
  return p;
}

void PhysMem::notify_code_write(PAddr pa, u32 len) {
  if (!on_code_write_) return;
  const u64 first = pa >> kPageShift;
  const u64 last = (pa + len - 1) >> kPageShift;
  for (u64 f = first; f <= last; ++f) {
    const u32 w = watched_[f];
    if (!w) continue;
    // Clip the write to this frame and test against the watched range
    // (hi is stored biased by +1; see watch_frame).
    const u32 w_lo = w >> 16;
    const u32 w_hi = (w & 0xffffu) - 1;
    const u32 frame_lo = static_cast<u32>(
        std::max<u64>(pa, f << kPageShift) - (f << kPageShift));
    const u32 frame_hi = static_cast<u32>(
        std::min<u64>(pa + len, (f + 1) << kPageShift) - (f << kPageShift));
    if (frame_lo < w_hi && w_lo < frame_hi) {
      on_code_write_(pa, len);
      return;
    }
  }
}

u8 PhysMem::read8(PAddr pa) const {
  assert(contains(pa, 1));
  return rtab_[pa >> kPageShift][page_offset(static_cast<u32>(pa))];
}

u16 PhysMem::read16(PAddr pa) const {
  assert(contains(pa, 2));
  const u32 off = page_offset(static_cast<u32>(pa));
  if (off <= kPageSize - 2) {
    const u8* p = rtab_[pa >> kPageShift] + off;
    return static_cast<u16>(p[0]) | (static_cast<u16>(p[1]) << 8);
  }
  return static_cast<u16>(read8(pa)) |
         (static_cast<u16>(read8(pa + 1)) << 8);
}

u32 PhysMem::read32(PAddr pa) const {
  assert(contains(pa, 4));
  const u32 off = page_offset(static_cast<u32>(pa));
  if (off <= kPageSize - 4) {
    const u8* p = rtab_[pa >> kPageShift] + off;
    return static_cast<u32>(p[0]) | (static_cast<u32>(p[1]) << 8) |
           (static_cast<u32>(p[2]) << 16) | (static_cast<u32>(p[3]) << 24);
  }
  return static_cast<u32>(read8(pa)) |
         (static_cast<u32>(read8(pa + 1)) << 8) |
         (static_cast<u32>(read8(pa + 2)) << 16) |
         (static_cast<u32>(read8(pa + 3)) << 24);
}

void PhysMem::write8(PAddr pa, u8 v) {
  assert(contains(pa, 1));
  if (watched_[pa >> kPageShift]) notify_code_write(pa, 1);
  store8(pa, v);
}

void PhysMem::write16(PAddr pa, u16 v) {
  assert(contains(pa, 2));
  if (watched_[pa >> kPageShift] | watched_[(pa + 1) >> kPageShift]) {
    notify_code_write(pa, 2);
  }
  store8(pa, static_cast<u8>(v & 0xff));
  store8(pa + 1, static_cast<u8>(v >> 8));
}

void PhysMem::write32(PAddr pa, u32 v) {
  assert(contains(pa, 4));
  if (watched_[pa >> kPageShift] | watched_[(pa + 3) >> kPageShift]) {
    notify_code_write(pa, 4);
  }
  store8(pa, static_cast<u8>(v & 0xff));
  store8(pa + 1, static_cast<u8>((v >> 8) & 0xff));
  store8(pa + 2, static_cast<u8>((v >> 16) & 0xff));
  store8(pa + 3, static_cast<u8>((v >> 24) & 0xff));
}

void PhysMem::read(PAddr pa, MutByteSpan out) const {
  assert(contains(pa, static_cast<u32>(out.size())));
  size_t done = 0;
  while (done < out.size()) {
    const PAddr cur = pa + done;
    const u32 off = page_offset(static_cast<u32>(cur));
    const size_t n = std::min<size_t>(out.size() - done, kPageSize - off);
    std::memcpy(out.data() + done, rtab_[cur >> kPageShift] + off, n);
    done += n;
  }
}

void PhysMem::write(PAddr pa, ByteSpan data) {
  assert(contains(pa, static_cast<u32>(data.size())));
  if (!data.empty()) notify_code_write(pa, static_cast<u32>(data.size()));
  size_t done = 0;
  while (done < data.size()) {
    const PAddr cur = pa + done;
    const u64 f = cur >> kPageShift;
    const u32 off = page_offset(static_cast<u32>(cur));
    const size_t n = std::min<size_t>(data.size() - done, kPageSize - off);
    u8* p = wtab_[f];
    if (!p) p = cow_fault(f);
    std::memcpy(p + off, data.data() + done, n);
    done += n;
  }
}

void PhysMem::zero_frame(PAddr frame_base) {
  assert(page_offset(static_cast<u32>(frame_base)) == 0 &&
         contains(frame_base, kPageSize));
  notify_code_write(frame_base, kPageSize);
  const u64 f = frame_base >> kPageShift;
  u8* p = wtab_[f];
  if (!p) p = cow_fault(f, /*copy=*/false);
  std::memset(p, 0, kPageSize);
}

ByteSpan PhysMem::span(PAddr pa, u32 len) const {
  assert(contains(pa, len));
  const u64 f = pa >> kPageShift;
  assert(len == 0 || ((pa + len - 1) >> kPageShift) == f);
  return ByteSpan(rtab_[f] + page_offset(static_cast<u32>(pa)), len);
}

std::shared_ptr<const MemImage> PhysMem::freeze() const {
  // Frames still aliasing the zero frame were never written. Written
  // frames that hold only zeros (fresh page tables, zeroed allocations)
  // rejoin the zero frame too, so the image owns non-zero frames only.
  std::vector<u32> live;
  for (u32 f = 0; f < num_frames(); ++f) {
    if (rtab_[f] != kZeroFrame &&
        std::memcmp(rtab_[f], kZeroFrame, kPageSize) != 0) {
      live.push_back(f);
    }
  }
  auto img = std::make_shared<MemImage>();
  img->frames_.assign(num_frames(), kZeroFrame);
  img->storage_ = std::make_unique_for_overwrite<u8[]>(
      live.size() * static_cast<size_t>(kPageSize));
  img->owned_frames_ = static_cast<u32>(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    u8* dst = img->storage_.get() + i * kPageSize;
    std::memcpy(dst, rtab_[live[i]], kPageSize);
    img->frames_[live[i]] = dst;
  }
  return img;
}

FrameAllocator::FrameAllocator(u32 num_frames)
    : used_(num_frames, false), free_count_(num_frames) {}

Result<PAddr> FrameAllocator::alloc() {
  if (free_count_ == 0) return Err<PAddr>("out of physical frames");
  for (u32 i = 0; i < used_.size(); ++i) {
    u32 idx = (search_hint_ + i) % used_.size();
    if (!used_[idx]) {
      // Restart the scan from the beginning next time a lower frame is
      // freed; determinism only requires a fixed policy, so lowest-first
      // from hint is fine.
      used_[idx] = true;
      --free_count_;
      search_hint_ = idx + 1;
      return static_cast<PAddr>(idx) << kPageShift;
    }
  }
  return Err<PAddr>("out of physical frames");
}

Result<void> FrameAllocator::alloc_many(u32 n, std::vector<PAddr>& out) {
  if (free_count_ < n) return Err<void>("out of physical frames");
  for (u32 i = 0; i < n; ++i) {
    auto r = alloc();
    if (!r.ok()) return Err<void>(r.error().message);
    out.push_back(r.value());
  }
  return Ok();
}

void FrameAllocator::free(PAddr frame_base) {
  u32 idx = static_cast<u32>(frame_base >> kPageShift);
  assert(idx < used_.size() && used_[idx]);
  used_[idx] = false;
  ++free_count_;
  if (idx < search_hint_) search_hint_ = idx;
  if (on_free_) on_free_(frame_base);
}

void FrameAllocator::reserve(PAddr frame_base) {
  u32 idx = static_cast<u32>(frame_base >> kPageShift);
  assert(idx < used_.size());
  if (!used_[idx]) {
    used_[idx] = true;
    --free_count_;
  }
}

}  // namespace faros::vm
