// MMU: page tables, permissions, sharing, bulk copies, frame allocator.
#include <gtest/gtest.h>

#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros::vm {
namespace {

struct MmuEnv {
  PhysMem mem{8u << 20};
  FrameAllocator frames{0};
  MmuEnv() : frames(mem.num_frames()) { frames.reserve(0); }
};

TEST(FrameAllocator, AllocatesDistinctFramesDeterministically) {
  MmuEnv env;
  auto a = env.frames.alloc();
  auto b = env.frames.alloc();
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value() % kPageSize, 0u);
  // Frame 0 was reserved.
  EXPECT_NE(a.value(), 0u);
  // Freeing and re-allocating returns the lowest free frame again.
  env.frames.free(a.value());
  auto c = env.frames.alloc();
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), a.value());
}

TEST(FrameAllocator, ExhaustionReportsError) {
  PhysMem mem(4 * kPageSize);
  FrameAllocator frames(mem.num_frames());
  std::vector<PAddr> got;
  ASSERT_TRUE(frames.alloc_many(4, got).ok());
  EXPECT_FALSE(frames.alloc().ok());
  frames.free(got[2]);
  EXPECT_TRUE(frames.alloc().ok());
}

TEST(FrameAllocator, FreeObserverFires) {
  MmuEnv env;
  std::vector<PAddr> freed;
  env.frames.set_free_observer([&](PAddr f) { freed.push_back(f); });
  auto a = env.frames.alloc();
  ASSERT_TRUE(a.ok());
  env.frames.free(a.value());
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], a.value());
}

TEST(AddressSpace, MapTranslateUnmap) {
  MmuEnv env;
  auto as = AddressSpace::create(env.mem, env.frames);
  ASSERT_TRUE(as.ok());
  AddressSpace space = as.value();
  ASSERT_TRUE(space.map_alloc(0x40000000, kPageSize, kPteUser | kPteWrite)
                  .ok());
  auto pa = space.translate(0x40000123, AccessType::kRead, true);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(*pa % kPageSize, 0x123u);
  EXPECT_TRUE(space.is_mapped(0x40000000));
  EXPECT_FALSE(space.is_mapped(0x40001000));
  ASSERT_TRUE(space.unmap_page(0x40000000, true).ok());
  EXPECT_FALSE(space.is_mapped(0x40000000));
}

TEST(AddressSpace, Cr3IsUniquePerSpace) {
  MmuEnv env;
  auto a = AddressSpace::create(env.mem, env.frames);
  auto b = AddressSpace::create(env.mem, env.frames);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(a.value().cr3(), b.value().cr3());
}

TEST(AddressSpace, UserProtectionChecks) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(space.map_alloc(0x1000, kPageSize, kPteUser).ok());  // R only
  Fault fault;
  EXPECT_TRUE(space.translate(0x1000, AccessType::kRead, true).has_value());
  EXPECT_FALSE(space.translate(0x1000, AccessType::kWrite, true, &fault)
                   .has_value());
  EXPECT_EQ(fault.kind, FaultKind::kProtWrite);
  EXPECT_FALSE(space.translate(0x1000, AccessType::kExec, true, &fault)
                   .has_value());
  EXPECT_EQ(fault.kind, FaultKind::kProtExec);
  // Supervisor-only page.
  ASSERT_TRUE(space.map_alloc(0x3000, kPageSize, 0).ok());
  EXPECT_FALSE(space.translate(0x3000, AccessType::kRead, true, &fault)
                   .has_value());
  EXPECT_EQ(fault.kind, FaultKind::kNotUser);
  // Kernel-mode access bypasses all protection bits.
  EXPECT_TRUE(space.translate(0x3000, AccessType::kWrite, false).has_value());
  EXPECT_TRUE(space.translate(0x1000, AccessType::kWrite, false).has_value());
}

TEST(AddressSpace, ProtectRangeRewritesFlags) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(
      space.map_alloc(0x1000, 2 * kPageSize, kPteUser | kPteWrite).ok());
  ASSERT_TRUE(space.protect_range(0x1000, 2 * kPageSize, kPteUser).ok());
  Fault fault;
  EXPECT_FALSE(space.translate(0x1800, AccessType::kWrite, true, &fault)
                   .has_value());
  EXPECT_EQ(space.page_flags(0x1000) & kPteWrite, 0u);
}

TEST(AddressSpace, CopyInOutRoundTrip) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(
      space.map_alloc(0x7000, 3 * kPageSize, kPteUser | kPteWrite).ok());
  Bytes data(5000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  ASSERT_TRUE(space.copy_in(0x7123, data, true).ok());  // crosses pages
  Bytes out(data.size());
  ASSERT_TRUE(space.copy_out(0x7123, out, true).ok());
  EXPECT_EQ(out, data);
}

TEST(AddressSpace, CopyFaultsAreReported) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(space.map_alloc(0x7000, kPageSize, kPteUser | kPteWrite).ok());
  Bytes data(kPageSize + 1, 0xaa);
  EXPECT_FALSE(space.copy_in(0x7000, data, true).ok());  // runs off the end
  Bytes out(16);
  EXPECT_FALSE(space.copy_out(0x9000, out, true).ok());  // unmapped
}

TEST(AddressSpace, ReadCstr) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(space.map_alloc(0x7000, kPageSize, kPteUser | kPteWrite).ok());
  Bytes s{'h', 'i', 0};
  ASSERT_TRUE(space.copy_in(0x7000, s, true).ok());
  auto str = space.read_cstr(0x7000, 16, true);
  ASSERT_TRUE(str.ok());
  EXPECT_EQ(str.value(), "hi");
  // Unterminated within bound fails.
  Bytes long_s(32, 'x');
  ASSERT_TRUE(space.copy_in(0x7100, long_s, true).ok());
  EXPECT_FALSE(space.read_cstr(0x7100, 8, true).ok());
}

TEST(AddressSpace, SharedKernelDirectoryRangeSeesLaterMappings) {
  MmuEnv env;
  AddressSpace kernel = AddressSpace::create(env.mem, env.frames).value();
  // Pre-create the kernel-half table, as the OS boot does.
  ASSERT_TRUE(kernel.ensure_table(kKernelBase).ok());
  AddressSpace proc = AddressSpace::create(env.mem, env.frames).value();
  proc.share_directory_range(kernel, kKernelBase, 0xffffffffu);
  // A mapping added to the kernel space *after* sharing is visible in the
  // process space because the second-level table is shared.
  ASSERT_TRUE(kernel.map_alloc(kKernelBase + 0x5000, kPageSize,
                               kPteUser)
                  .ok());
  EXPECT_TRUE(proc.is_mapped(kKernelBase + 0x5000));
}

TEST(AddressSpace, DestroyFreesUserFramesButNotSharedKernel) {
  MmuEnv env;
  AddressSpace kernel = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(kernel.ensure_table(kKernelBase).ok());
  ASSERT_TRUE(kernel.map_alloc(kKernelBase, kPageSize, 0).ok());

  u32 before = env.frames.free_frames();
  AddressSpace proc = AddressSpace::create(env.mem, env.frames).value();
  proc.share_directory_range(kernel, kKernelBase, 0xffffffffu);
  ASSERT_TRUE(proc.map_alloc(0x1000, 4 * kPageSize, kPteUser | kPteWrite)
                  .ok());
  proc.destroy(true);
  EXPECT_EQ(env.frames.free_frames(), before);
  // Kernel mapping still intact.
  EXPECT_TRUE(kernel.is_mapped(kKernelBase));
}

TEST(AddressSpace, UnmapRangePartialAndIdempotentMapAlloc) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(
      space.map_alloc(0x10000, 4 * kPageSize, kPteUser | kPteWrite).ok());
  // map_alloc over an already-mapped range is idempotent.
  ASSERT_TRUE(
      space.map_alloc(0x10000, 4 * kPageSize, kPteUser | kPteWrite).ok());
  ASSERT_TRUE(space.unmap_range(0x11000, 2 * kPageSize, true).ok());
  EXPECT_TRUE(space.is_mapped(0x10000));
  EXPECT_FALSE(space.is_mapped(0x11000));
  EXPECT_FALSE(space.is_mapped(0x12000));
  EXPECT_TRUE(space.is_mapped(0x13000));
}

TEST(AddressSpace, TranslateDistinguishesOffsetsWithinPage) {
  MmuEnv env;
  AddressSpace space = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(space.map_alloc(0x5000, kPageSize, kPteUser).ok());
  auto a = space.translate(0x5000, AccessType::kRead, false);
  auto b = space.translate(0x5fff, AccessType::kRead, false);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(*b - *a, 0xfffu);
}

// zero_frame is write(frame, 4096 zero bytes) done as one memset: on a
// shared frame holding data, a private frame and a watched code frame, the
// contents, copy-on-write statistics and observer calls match the write.
TEST(PhysMemZeroFrame, MatchesWholeFrameWriteOfZeros) {
  PhysMem seed(8 * kPageSize);
  const Bytes junk(kPageSize, 0xab);
  for (u32 f = 1; f <= 3; ++f) seed.write(f * kPageSize, junk);
  const auto image = seed.freeze();

  PhysMem zeroed(image), written(image);
  using Calls = std::vector<std::pair<PAddr, u32>>;
  Calls zeroed_calls, written_calls;
  zeroed.set_code_write_observer(
      [&](PAddr pa, u32 len) { zeroed_calls.emplace_back(pa, len); });
  written.set_code_write_observer(
      [&](PAddr pa, u32 len) { written_calls.emplace_back(pa, len); });
  for (PhysMem* m : {&zeroed, &written}) {
    m->write8(2 * kPageSize + 5, 0x11);          // frame 2 goes private
    m->watch_frame(3 * kPageSize, 0x40, 0x48);   // frame 3 holds "code"
    m->watch_frame(4 * kPageSize, 0x10, 0x18);   // frame 4: all-zero image
  }
  const Bytes zeros(kPageSize, 0);
  for (PAddr frame : {1 * kPageSize, 2 * kPageSize, 3 * kPageSize,
                      4 * kPageSize}) {
    zeroed.zero_frame(frame);
    written.write(frame, zeros);
    EXPECT_EQ(zeroed.cow_stats().cow_faults, written.cow_stats().cow_faults);
    EXPECT_EQ(zeroed.cow_stats().shared_frames,
              written.cow_stats().shared_frames);
  }
  EXPECT_EQ(zeroed_calls, written_calls);
  EXPECT_EQ(zeroed_calls.size(), 2u);  // the two watched frames
  // Frames 1, 3 and 4 faulted here; frame 2 had faulted on its write8.
  EXPECT_EQ(zeroed.cow_stats().cow_faults, 4u);
  for (u32 f = 0; f < 8; ++f) {
    Bytes a(kPageSize), b(kPageSize);
    zeroed.read(f * kPageSize, a);
    written.read(f * kPageSize, b);
    EXPECT_EQ(a, b) << "frame " << f;
    EXPECT_EQ(a, zeros) << "frame " << f;
  }
  // The shared image is never written through.
  EXPECT_EQ(image->read8(kPageSize), 0xab);
}

// An address space hands back exactly the frames it took, and every
// page-table operation moves the epoch interpreters flush their TLBs on.
TEST(AddressSpace, CreateThenDestroyReturnsExactlyItsFramesAndMovesEpoch) {
  MmuEnv env;
  AddressSpace kernel = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(kernel.ensure_table(kKernelBase).ok());
  ASSERT_TRUE(kernel.map_alloc(kKernelBase, kPageSize, kPteUser).ok());
  const FrameAllocator::State before = env.frames.state();
  std::vector<PAddr> freed;
  env.frames.set_free_observer([&](PAddr f) { freed.push_back(f); });

  u64 epoch = env.mem.pt_epoch();
  auto moved = [&] {
    const bool m = env.mem.pt_epoch() != epoch;
    epoch = env.mem.pt_epoch();
    return m;
  };
  AddressSpace proc = AddressSpace::create(env.mem, env.frames).value();
  EXPECT_TRUE(moved());
  proc.share_directory_range(kernel, kKernelBase, 0xffffffffu);
  EXPECT_TRUE(moved());
  EXPECT_TRUE(proc.is_mapped(kKernelBase));
  // Two user tables: an image-like range and a stack-like one.
  ASSERT_TRUE(proc.map_alloc(0x400000, 3 * kPageSize, kPteUser).ok());
  ASSERT_TRUE(proc.map_alloc(0x7ff00000, 2 * kPageSize, kPteUser).ok());
  EXPECT_TRUE(moved());
  const u32 taken = before.free_count - env.frames.free_frames();
  EXPECT_EQ(taken, 1u + 2u + 3u + 2u);  // directory, tables, pages
  const std::vector<bool> used_while_live = env.frames.state().used;
  const PAddr cr3 = proc.cr3();

  proc.destroy(/*free_user_frames=*/true);
  EXPECT_TRUE(moved());
  EXPECT_EQ(env.frames.state().used, before.used);
  EXPECT_EQ(env.frames.free_frames(), before.free_count);
  ASSERT_EQ(freed.size(), taken);
  for (PAddr f : freed) {
    EXPECT_TRUE(used_while_live[f >> kPageShift]);
    EXPECT_FALSE(before.used[f >> kPageShift]);
  }
  EXPECT_TRUE(kernel.is_mapped(kKernelBase));
  // A recycled directory starts empty: the next space reuses the lowest
  // free frame and sees none of the old user mappings.
  AddressSpace next = AddressSpace::create(env.mem, env.frames).value();
  EXPECT_EQ(next.cr3(), cr3);
  EXPECT_FALSE(next.is_mapped(0x400000));
  EXPECT_FALSE(next.is_mapped(0x7ff00000));
}

}  // namespace
}  // namespace faros::vm
