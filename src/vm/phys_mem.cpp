#include "vm/phys_mem.h"

#include <cassert>
#include <cstring>

#include "common/strings.h"

namespace faros::vm {

namespace {
// The one frame every all-zero frame of every image aliases, and the one
// leaf every leaf without a non-zero frame is. Never written through: a
// frame aliasing the zero frame has a null write pointer until its COW
// fault, and a leaf gets a private block before any of its entries change.
alignas(kPageSize) constexpr u8 kZeroFrame[kPageSize] = {};
constexpr MemImage::Leaf kZeroLeaf = [] {
  MemImage::Leaf leaf{};
  leaf.fill(kZeroFrame);
  return leaf;
}();
}  // namespace

std::shared_ptr<const MemImage> MemImage::zeros(u32 size_bytes) {
  assert(size_bytes > 0);
  auto img = std::make_shared<MemImage>();
  img->num_frames_ = page_ceil(size_bytes) >> kPageShift;
  img->leaves_.assign((img->num_frames_ + kLeafMask) >> kLeafShift,
                      &kZeroLeaf);
  return img;
}

PhysMem::PhysMem(u32 size_bytes) : PhysMem(MemImage::zeros(size_bytes)) {
  stats_.cow = false;
}

PhysMem::PhysMem(std::shared_ptr<const MemImage> base)
    : base_(std::move(base)) {
  assert(base_ && base_->num_frames() > 0);
  size_ = base_->size();
  rleaf_ = base_->leaves_;
  own_.resize(rleaf_.size());
  stats_.cow = true;
  stats_.shared_frames = num_frames();
}

PhysMem::LeafBlock& PhysMem::own_leaf(u64 leaf) {
  std::unique_ptr<LeafBlock>& b = own_[leaf];
  if (!b) {
    b = std::make_unique<LeafBlock>(*rleaf_[leaf]);
    rleaf_[leaf] = &b->r;
  }
  return *b;
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
  LeafBlock& b = own_leaf(frame >> kLeafShift);
  const u64 i = frame & kLeafMask;
  u8* p = arena_alloc();
  if (copy) std::memcpy(p, b.r[i], kPageSize);
  b.r[i] = p;
  b.w[i] = p;
  ++stats_.cow_faults;
  --stats_.shared_frames;
  return p;
}

void PhysMem::notify_code_write(PAddr pa, u32 len) {
  if (!on_code_write_) return;
  const u64 first = pa >> kPageShift;
  const u64 last = (pa + len - 1) >> kPageShift;
  for (u64 f = first; f <= last; ++f) {
    const u32 w = watch_word(f);
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
  return rframe(pa >> kPageShift)[page_offset(static_cast<u32>(pa))];
}

u16 PhysMem::read16(PAddr pa) const {
  assert(contains(pa, 2));
  const u32 off = page_offset(static_cast<u32>(pa));
  if (off <= kPageSize - 2) {
    const u8* p = rframe(pa >> kPageShift) + off;
    return static_cast<u16>(p[0]) | (static_cast<u16>(p[1]) << 8);
  }
  return static_cast<u16>(read8(pa)) |
         (static_cast<u16>(read8(pa + 1)) << 8);
}

u32 PhysMem::read32(PAddr pa) const {
  assert(contains(pa, 4));
  const u32 off = page_offset(static_cast<u32>(pa));
  if (off <= kPageSize - 4) {
    const u8* p = rframe(pa >> kPageShift) + off;
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
  if (watch_word(pa >> kPageShift)) notify_code_write(pa, 1);
  store8(pa, v);
}

void PhysMem::write16(PAddr pa, u16 v) {
  assert(contains(pa, 2));
  if (watch_word(pa >> kPageShift) | watch_word((pa + 1) >> kPageShift)) {
    notify_code_write(pa, 2);
  }
  store8(pa, static_cast<u8>(v & 0xff));
  store8(pa + 1, static_cast<u8>(v >> 8));
}

void PhysMem::write32(PAddr pa, u32 v) {
  assert(contains(pa, 4));
  if (watch_word(pa >> kPageShift) | watch_word((pa + 3) >> kPageShift)) {
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
    std::memcpy(out.data() + done, rframe(cur >> kPageShift) + off, n);
    done += n;
  }
}

void PhysMem::write(PAddr pa, ByteSpan data) {
  assert(contains(pa, static_cast<u32>(data.size())));
  if (!data.empty()) notify_code_write(pa, static_cast<u32>(data.size()));
  size_t done = 0;
  while (done < data.size()) {
    const PAddr cur = pa + done;
    const u32 off = page_offset(static_cast<u32>(cur));
    const size_t n = std::min<size_t>(data.size() - done, kPageSize - off);
    std::memcpy(wframe(cur >> kPageShift) + off, data.data() + done, n);
    done += n;
  }
}

void PhysMem::zero_frame(PAddr frame_base) {
  assert(page_offset(static_cast<u32>(frame_base)) == 0 &&
         contains(frame_base, kPageSize));
  notify_code_write(frame_base, kPageSize);
  std::memset(wframe(frame_base >> kPageShift, /*copy=*/false), 0, kPageSize);
}

ByteSpan PhysMem::span(PAddr pa, u32 len) const {
  assert(contains(pa, len));
  const u64 f = pa >> kPageShift;
  assert(len == 0 || ((pa + len - 1) >> kPageShift) == f);
  return ByteSpan(rframe(f) + page_offset(static_cast<u32>(pa)), len);
}

std::shared_ptr<const MemImage> PhysMem::freeze() const {
  // Leaves still at the zero leaf were never written or watched. Written
  // frames that hold only zeros (fresh page tables, zeroed allocations)
  // rejoin the zero frame too, so the image owns non-zero frames only.
  const u32 nf = num_frames();
  std::vector<u32> live;
  for (u32 l = 0; l < rleaf_.size(); ++l) {
    if (rleaf_[l] == &kZeroLeaf) continue;
    for (u32 f = l << kLeafShift; f < std::min(nf, (l + 1) << kLeafShift);
         ++f) {
      const u8* p = rframe(f);
      if (p != kZeroFrame && std::memcmp(p, kZeroFrame, kPageSize) != 0) {
        live.push_back(f);
      }
    }
  }
  auto img = std::make_shared<MemImage>();
  img->num_frames_ = nf;
  img->leaves_.assign(rleaf_.size(), &kZeroLeaf);
  img->storage_ = std::make_unique_for_overwrite<u8[]>(
      live.size() * static_cast<size_t>(kPageSize));
  img->owned_frames_ = static_cast<u32>(live.size());
  for (size_t i = 0; i < live.size(); ++i) {
    // `live` ascends, so a frame's leaf is the last one made.
    const u32 l = live[i] >> kLeafShift;
    if (img->leaves_[l] == &kZeroLeaf) {
      img->owned_leaves_.push_back(
          std::make_unique<MemImage::Leaf>(kZeroLeaf));
      img->leaves_[l] = img->owned_leaves_.back().get();
    }
    u8* dst = img->storage_.get() + i * kPageSize;
    std::memcpy(dst, rframe(live[i]), kPageSize);
    (*img->owned_leaves_.back())[live[i] & kLeafMask] = dst;
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
