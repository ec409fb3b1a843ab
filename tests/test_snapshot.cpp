// Snapshot/COW guest cloning (os/snapshot.h + vm/phys_mem.h): clone
// isolation from the frozen image and from sibling clones, COW fault
// accounting, the shared zero frame and sparse capture, a seeded
// differential of PhysMem's two-level frame tables against a flat
// reference model, FrameAllocator state round-trips, boot-from-snapshot
// equivalence with a cold boot, interleaved clone determinism, and the
// farm's cloned jobs against cold-booted analyses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "attacks/corpus.h"
#include "attacks/scenarios.h"
#include "common/rng.h"
#include "core/analyst.h"
#include "core/engine.h"
#include "farm/farm.h"
#include "os/machine.h"
#include "os/snapshot.h"
#include "vm/phys_mem.h"

namespace faros {
namespace {

using vm::FrameAllocator;
using vm::kPageSize;
using vm::MemImage;
using vm::PhysMem;

// --- PhysMem COW semantics --------------------------------------------------

TEST(PhysMemCow, CloneReadsImageAndFaultsPrivatelyOnWrite) {
  PhysMem owned{1u << 16};  // 16 frames
  owned.write32(0x10, 0xdeadbeefu);
  owned.write8(0x1000, 7);
  EXPECT_FALSE(owned.cow_stats().cow);
  auto img = owned.freeze();

  PhysMem c1{img};
  PhysMem c2{img};
  EXPECT_TRUE(c1.cow_stats().cow);
  EXPECT_EQ(c1.cow_stats().cow_faults, 0u);
  EXPECT_EQ(c1.cow_stats().shared_frames, 16u);
  EXPECT_EQ(c1.read32(0x10), 0xdeadbeefu);
  EXPECT_EQ(c2.read8(0x1000), 7u);

  // First write faults exactly one frame; the image and the sibling clone
  // never see it.
  c1.write32(0x10, 0x11111111u);
  EXPECT_EQ(c1.cow_stats().cow_faults, 1u);
  EXPECT_EQ(c1.cow_stats().shared_frames, 15u);
  EXPECT_EQ(c1.read32(0x10), 0x11111111u);
  EXPECT_EQ(c2.read32(0x10), 0xdeadbeefu);
  EXPECT_EQ(img->read8(0x10), 0xefu);

  // Later writes to an already-private frame take no further fault; the
  // rest of the frame keeps the image contents.
  c1.write8(0x14, 9);
  EXPECT_EQ(c1.cow_stats().cow_faults, 1u);
  EXPECT_EQ(c1.read8(0x1000), 7u);

  // The donor PhysMem is untouched by clone activity.
  EXPECT_EQ(owned.read32(0x10), 0xdeadbeefu);
}

TEST(PhysMemCow, BulkOpsFaultPerFrameAndFreezeRoundTrips) {
  PhysMem owned{1u << 15};  // 8 frames
  auto img = owned.freeze();
  PhysMem c{img};

  // A bulk write starting mid-frame spans 4 frames -> 4 faults.
  std::vector<u8> buf(3 * kPageSize);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<u8>(i * 131 + 7);
  }
  c.write(0x800, ByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(c.cow_stats().cow_faults, 4u);
  EXPECT_EQ(c.cow_stats().shared_frames, 4u);

  std::vector<u8> back(buf.size());
  c.read(0x800, MutByteSpan(back.data(), back.size()));
  EXPECT_EQ(back, buf);

  // Freezing a dirty clone materialises private + still-shared frames into
  // one coherent image a second-generation clone reads back exactly.
  auto img2 = c.freeze();
  PhysMem c2{img2};
  std::vector<u8> again(buf.size());
  c2.read(0x800, MutByteSpan(again.data(), again.size()));
  EXPECT_EQ(again, buf);
  EXPECT_EQ(c2.read8(0x7fff), 0u);  // untouched tail frame is still zero

  // The first-generation image stayed zero throughout.
  for (u32 pa = 0x800; pa < 0x800 + 64; ++pa) {
    EXPECT_EQ(img->read8(pa), 0u);
  }
}

TEST(PhysMemCow, FreshRamNeverWritesThroughTheSharedZeroFrame) {
  // Every fresh PhysMem aliases one shared zero frame; writes to one
  // instance must fault privately, never land in that frame.
  PhysMem a{64u << 20};
  PhysMem b{64u << 20};
  EXPECT_FALSE(a.cow_stats().cow);
  a.write8(0x1234, 0xaa);
  a.write16(0x2fff, 0xbbcc);  // straddles two frames
  a.write32(0x5000, 0xdeadbeefu);
  // A bulk write starting mid-frame and spanning three frames.
  std::vector<u8> buf(2 * kPageSize + 100, 0x5a);
  a.write(0x8f00, ByteSpan(buf.data(), buf.size()));
  EXPECT_EQ(a.read8(0x1234), 0xaau);
  EXPECT_EQ(a.read16(0x2fff), 0xbbccu);
  EXPECT_EQ(a.read32(0x5000), 0xdeadbeefu);
  EXPECT_EQ(a.read8(0x8f00 + buf.size() - 1), 0x5au);

  // The sibling instance, and every frame `a` never wrote, still read zero.
  for (PAddr pa : {0x1234u, 0x2ffeu, 0x2fffu, 0x3000u, 0x5000u, 0x8f00u,
                   0x9000u, 0xa000u, 0xafffu}) {
    EXPECT_EQ(b.read8(pa), 0u) << std::hex << pa;
  }
  for (PAddr pa : {0x0u, 0x4000u, 0xb000u, (63u << 20) + 0x10u}) {
    EXPECT_EQ(a.read32(pa), 0u) << std::hex << pa;
    const ByteSpan s = a.span(pa, 8);
    EXPECT_TRUE(std::all_of(s.begin(), s.end(), [](u8 v) { return v == 0; }))
        << std::hex << pa;
  }
  const ByteSpan s = b.span(0x8f00, 8);
  EXPECT_TRUE(std::all_of(s.begin(), s.end(), [](u8 v) { return v == 0; }));

  // A frozen image of `a` owns exactly the frames holding non-zero bytes.
  auto img = a.freeze();
  EXPECT_EQ(img->owned_frames(), 7u);  // 0x1, 0x2, 0x3, 0x5, 0x8, 0x9, 0xa
  EXPECT_EQ(img->read8(0x1234), 0xaau);
  EXPECT_EQ(img->read8(0x4000), 0u);
}

TEST(PhysMemCow, WatchStateIsPerInstanceNotPartOfTheImage) {
  // The btcache watch set belongs to one machine's cache; clones must come
  // up unwatched (their caches start cold and re-watch as they translate).
  PhysMem owned{1u << 14};
  owned.watch_frame(0, 0, 64);
  auto img = owned.freeze();
  PhysMem c{img};
  EXPECT_TRUE(owned.frame_watched(0));
  EXPECT_FALSE(c.frame_watched(0));
}

// --- PhysMem against a flat reference model ---------------------------------

// What PhysMem must behave as, written out directly: a flat byte array
// (frames never written read zero), the frames this machine has written
// (each took one COW fault) and the per-frame watch ranges.
struct RefMem {
  explicit RefMem(u32 frames) : frames(frames) {}

  u8 get(u32 pa) const {
    auto it = data.find(pa / kPageSize);
    return it == data.end() ? 0 : it->second[pa % kPageSize];
  }
  Bytes frame(u32 f) const {
    auto it = data.find(f);
    return it == data.end() ? Bytes(kPageSize, 0) : it->second;
  }
  void put(u32 pa, u8 v) {
    Bytes& frame = data[pa / kPageSize];
    if (frame.empty()) frame.assign(kPageSize, 0);
    frame[pa % kPageSize] = v;
    owned.insert(pa / kPageSize);
  }
  // The observer's contract: one call with [pa, pa + len) when the write
  // overlaps the watched range of any frame it touches.
  bool fires(u32 pa, u32 len) const {
    for (u32 f = pa / kPageSize; f <= (pa + len - 1) / kPageSize; ++f) {
      auto it = watch.find(f);
      if (it == watch.end()) continue;
      const u32 base = f * kPageSize;
      const u32 lo = std::max(pa, base) - base;
      const u32 hi = std::min(pa + len, base + kPageSize) - base;
      if (lo < it->second.second && it->second.first < hi) return true;
    }
    return false;
  }
  u32 nonzero_frames() const {
    return static_cast<u32>(std::count_if(
        data.begin(), data.end(), [](const auto& kv) {
          return std::any_of(kv.second.begin(), kv.second.end(),
                             [](u8 b) { return b != 0; });
        }));
  }

  u32 frames;
  std::map<u32, Bytes> data;
  std::set<u32> owned;
  std::map<u32, std::pair<u32, u32>> watch;  // frame -> [lo, hi)
};

// One PhysMem under test, its reference and the observer calls it made.
// Pinned in place: the observer holds its address.
struct Subject {
  Subject(PhysMem m, RefMem r) : mem(std::move(m)), ref(std::move(r)) {
    mem.set_code_write_observer(
        [this](PAddr pa, u32 len) { calls.emplace_back(pa, len); });
  }
  Subject(const Subject&) = delete;
  Subject& operator=(const Subject&) = delete;
  PhysMem mem;
  RefMem ref;
  std::vector<std::pair<PAddr, u32>> calls;
};

// Seeded random operations on PhysMems against RefMems. Addresses
// concentrate on a pool of frames around frame 0, the last frame and the
// leaf boundaries, so bulk accesses cross frames and leaves and the same
// frames are written, frozen and rewritten.
class PhysMemDifferential {
 public:
  PhysMemDifferential(u32 frames, u64 seed) : frames_(frames), rng_(seed) {
    for (u32 f : {0u, 1u, frames - 2, frames - 1}) hot_.push_back(f);
    for (u32 l = vm::kFramesPerLeaf; l < frames; l += vm::kFramesPerLeaf) {
      for (u32 f : {l - 1, l, l + 1}) hot_.push_back(std::min(f, frames - 1));
    }
    for (int i = 0; i < 8; ++i) {
      hot_.push_back(static_cast<u32>(rng_.below(frames)));
    }
  }

  u32 size() const { return frames_ * kPageSize; }

  void run(Subject& s, int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      SCOPED_TRACE(i);
      step(s);
    }
  }

  // Interleaves ops on two subjects (sibling clones of one image).
  void run_pair(Subject& a, Subject& b, int ops) {
    for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
      SCOPED_TRACE(i);
      step(rng_.chance(0.5) ? a : b);
    }
  }

  // Every byte of every frame any reference has touched, plus a sample of
  // the rest, reads as `ref` says.
  void expect_contents(const PhysMem& m, const RefMem& ref,
                       const std::set<u32>& frames) {
    Bytes got(kPageSize);
    for (u32 f : frames) {
      m.read(f * kPageSize, MutByteSpan(got.data(), got.size()));
      ASSERT_TRUE(got == ref.frame(f)) << "frame " << f;
    }
    for (int i = 0; i < 256; ++i) {
      const u32 pa = static_cast<u32>(rng_.below(size()));
      ASSERT_EQ(m.read8(pa), ref.get(pa)) << std::hex << pa;
    }
  }
  void expect_image(const MemImage& img, const RefMem& ref,
                    const std::set<u32>& frames) {
    ASSERT_EQ(img.num_frames(), frames_);
    Bytes got(kPageSize);
    for (u32 f : frames) {
      for (u32 off = 0; off < kPageSize; ++off) {
        got[off] = img.read8(f * kPageSize + off);
      }
      ASSERT_TRUE(got == ref.frame(f)) << "frame " << f;
    }
  }

 private:
  PAddr pick(u32 len) {
    const u32 f = rng_.chance(0.85) ? hot_[rng_.below(hot_.size())]
                                    : static_cast<u32>(rng_.below(frames_));
    // Half the accesses start in the last 16 bytes of their frame.
    const u32 off = rng_.chance(0.5)
                        ? kPageSize - 1 - static_cast<u32>(rng_.below(16))
                        : static_cast<u32>(rng_.below(kPageSize));
    const u64 pa = static_cast<u64>(f) * kPageSize + off;
    return static_cast<PAddr>(std::min<u64>(pa, size() - len));
  }

  void expect_call(Subject& s, bool fires, PAddr pa, u32 len) {
    std::vector<std::pair<PAddr, u32>> want;
    if (fires) want.emplace_back(pa, len);
    EXPECT_EQ(s.calls, want);
    s.calls.clear();
  }

  void step(Subject& s) {
    RefMem& ref = s.ref;
    switch (rng_.below(12)) {
      case 0:
      case 1:
      case 2: {  // read8/16/32, and the zero-copy view of the same bytes
        const u32 len = 1u << rng_.below(3);
        const PAddr pa = pick(len);
        u32 want = 0;
        for (u32 i = 0; i < len; ++i) want |= u32{ref.get(pa + i)} << (8 * i);
        const u32 got = len == 1   ? s.mem.read8(pa)
                        : len == 2 ? s.mem.read16(pa)
                                   : s.mem.read32(pa);
        EXPECT_EQ(got, want) << std::hex << pa << " len " << len;
        if (vm::page_offset(pa) + len <= kPageSize) {
          const ByteSpan v = s.mem.span(pa, len);
          for (u32 i = 0; i < len; ++i) EXPECT_EQ(v[i], ref.get(pa + i));
        }
        break;
      }
      case 3:
      case 4:
      case 5: {  // write8/16/32
        const u32 len = 1u << rng_.below(3);
        const PAddr pa = pick(len);
        const u32 v = rng_.next_u32();
        const bool fires = ref.fires(pa, len);
        if (len == 1) s.mem.write8(pa, static_cast<u8>(v));
        if (len == 2) s.mem.write16(pa, static_cast<u16>(v));
        if (len == 4) s.mem.write32(pa, v);
        for (u32 i = 0; i < len; ++i) {
          ref.put(pa + i, static_cast<u8>(v >> (8 * i)));
        }
        expect_call(s, fires, pa, len);
        break;
      }
      case 6: {  // bulk read across frames (and leaves)
        const u32 len = static_cast<u32>(rng_.below(2 * kPageSize + 300));
        const PAddr pa = pick(len);
        Bytes got(len);
        s.mem.read(pa, MutByteSpan(got.data(), got.size()));
        for (u32 i = 0; i < len; ++i) {
          ASSERT_EQ(got[i], ref.get(pa + i)) << std::hex << pa + i;
        }
        break;
      }
      case 7: {  // bulk write; sometimes all zeros, which freeze drops
        const u32 len = static_cast<u32>(rng_.below(2 * kPageSize + 300));
        const PAddr pa = pick(len);
        Bytes data = rng_.chance(0.3) ? Bytes(len, 0) : rng_.bytes(len);
        const bool fires = len && ref.fires(pa, len);
        s.mem.write(pa, ByteSpan(data.data(), data.size()));
        for (u32 i = 0; i < len; ++i) ref.put(pa + i, data[i]);
        expect_call(s, fires, pa, len);
        break;
      }
      case 8: {
        const PAddr base = vm::page_floor(pick(kPageSize));
        const bool fires = ref.fires(base, kPageSize);
        s.mem.zero_frame(base);
        for (u32 i = 0; i < kPageSize; ++i) ref.put(base + i, 0);
        expect_call(s, fires, base, kPageSize);
        break;
      }
      case 9: {
        const PAddr base = vm::page_floor(pick(1));
        u32 lo = static_cast<u32>(rng_.below(kPageSize));
        u32 hi = static_cast<u32>(rng_.range(lo + 1, kPageSize));
        s.mem.watch_frame(base, lo, hi);
        auto [it, fresh] = ref.watch.try_emplace(base / kPageSize, lo, hi);
        if (!fresh) {
          it->second = {std::min(lo, it->second.first),
                        std::max(hi, it->second.second)};
        }
        break;
      }
      case 10: {
        const PAddr base = vm::page_floor(pick(1));
        s.mem.unwatch_frame(base);
        ref.watch.erase(base / kPageSize);
        break;
      }
      default: {
        const PAddr base = vm::page_floor(pick(1));
        EXPECT_EQ(s.mem.frame_watched(base),
                  ref.watch.count(base / kPageSize) != 0);
        break;
      }
    }
    const PhysMem::CowStats& st = s.mem.cow_stats();
    EXPECT_EQ(st.cow_faults, ref.owned.size());
    EXPECT_EQ(st.shared_frames, frames_ - ref.owned.size());
  }

  u32 frames_;
  Rng rng_;
  std::vector<u32> hot_;
};

std::set<u32> touched(std::initializer_list<const RefMem*> refs) {
  std::set<u32> out;
  for (const RefMem* r : refs) {
    for (const auto& kv : r->data) out.insert(kv.first);
  }
  return out;
}

// A clone's reference: the image's bytes, nothing owned, nothing watched.
RefMem clone_ref(const RefMem& frozen) {
  RefMem r(frozen.frames);
  r.data = frozen.data;
  return r;
}

// Cold RAM, then a freeze, two sibling clones of it run interleaved, a
// freeze of one clone and a clone of that: every read, observer call and
// COW counter matches the reference, owned_frames counts the non-zero
// frames, and no write ever shows in an image or in a sibling.
void run_phys_mem_differential(u32 frames, u64 seed) {
  SCOPED_TRACE(::testing::Message() << frames << " frames, seed " << seed);
  constexpr int kOps = 3000;
  PhysMemDifferential d(frames, seed);

  Subject cold(PhysMem(d.size()), RefMem(frames));
  EXPECT_FALSE(cold.mem.cow_stats().cow);
  d.run(cold, kOps);
  auto img1 = cold.mem.freeze();
  const RefMem ref1 = clone_ref(cold.ref);
  EXPECT_EQ(img1->owned_frames(), ref1.nonzero_frames());
  d.expect_image(*img1, ref1, touched({&ref1}));

  Subject a(PhysMem(img1), clone_ref(ref1));
  Subject b(PhysMem(img1), clone_ref(ref1));
  EXPECT_TRUE(a.mem.cow_stats().cow);
  EXPECT_EQ(a.mem.cow_stats().shared_frames, frames);
  d.run_pair(a, b, kOps);
  d.expect_contents(b.mem, b.ref, touched({&ref1, &a.ref, &b.ref}));
  d.expect_image(*img1, ref1, touched({&ref1, &a.ref, &b.ref}));

  auto img2 = a.mem.freeze();
  const RefMem ref2 = clone_ref(a.ref);
  EXPECT_EQ(img2->owned_frames(), ref2.nonzero_frames());
  Subject c(PhysMem(img2), clone_ref(ref2));
  d.run(c, kOps);
  const std::set<u32> all = touched({&ref1, &a.ref, &b.ref, &c.ref});
  d.expect_image(*img2, ref2, all);
  d.expect_image(*img1, ref1, all);
  d.expect_contents(a.mem, a.ref, all);
  d.expect_contents(b.mem, b.ref, all);
  d.expect_contents(c.mem, c.ref, all);
}

TEST(PhysMemDiff, OneLeafOfSixteenFrames) {
  run_phys_mem_differential(16, 1);
}

TEST(PhysMemDiff, PartialLastLeafAtThreeHundredFrames) {
  run_phys_mem_differential(300, 2);
}

TEST(PhysMemDiff, SixtyFourMiB) {
  run_phys_mem_differential((64u << 20) / kPageSize, 3);
}

TEST(FrameAllocatorSnap, StateRestoreReproducesTheAllocationStream) {
  FrameAllocator a{16};
  a.reserve(0);
  ASSERT_TRUE(a.alloc().ok());
  auto f = a.alloc();
  ASSERT_TRUE(f.ok());
  a.free(f.value());

  FrameAllocator b{16};
  b.restore(a.state());
  EXPECT_EQ(b.free_frames(), a.free_frames());
  // Restored allocator continues the exact same deterministic stream.
  for (int i = 0; i < 8; ++i) {
    auto fa = a.alloc();
    auto fb = b.alloc();
    ASSERT_TRUE(fa.ok());
    ASSERT_TRUE(fb.ok());
    EXPECT_EQ(fa.value(), fb.value()) << i;
  }
}

// --- kernel snapshot capture / restore --------------------------------------

TEST(Snapshot, BootFromSnapshotMatchesColdBoot) {
  os::KernelConfig cfg;
  auto snap = os::capture_snapshot(cfg);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  EXPECT_EQ(snap.value()->ram->size(), os::kRamBytes);
  EXPECT_GT(snap.value()->frames.free_count, 0u);

  os::KernelConfig warm_cfg = cfg;
  warm_cfg.snapshot = snap.value();
  os::Kernel warm(warm_cfg);
  os::Kernel cold(cfg);
  ASSERT_TRUE(warm.boot().ok());
  ASSERT_TRUE(cold.boot().ok());

  ASSERT_EQ(warm.modules().size(), cold.modules().size());
  for (size_t i = 0; i < warm.modules().size(); ++i) {
    EXPECT_EQ(warm.modules()[i].name, cold.modules()[i].name);
    EXPECT_EQ(warm.modules()[i].base, cold.modules()[i].base);
    EXPECT_EQ(warm.modules()[i].size, cold.modules()[i].size);
    EXPECT_EQ(warm.modules()[i].exports_va, cold.modules()[i].exports_va);
    EXPECT_EQ(warm.modules()[i].export_count, cold.modules()[i].export_count);
  }
  EXPECT_EQ(warm.console(), cold.console());
  EXPECT_EQ(warm.frame_alloc().free_frames(), cold.frame_alloc().free_frames());
  EXPECT_EQ(warm.kernel_as().cr3(), snap.value()->kernel_cr3);
  // The clone has not written a single frame yet.
  EXPECT_TRUE(warm.phys_mem().cow_stats().cow);
  EXPECT_EQ(warm.phys_mem().cow_stats().cow_faults, 0u);
}

TEST(Snapshot, CaptureOwnsOnlyTheFramesBootFilled) {
  // Boot writes module code, export tables and kernel page tables; only the
  // frames holding a non-zero byte get storage in the image, the rest of
  // the 64 MiB guest aliases the zero frame.
  os::KernelConfig cfg;
  auto snap = os::capture_snapshot(cfg);
  ASSERT_TRUE(snap.ok()) << snap.error().message;
  const vm::MemImage& img = *snap.value()->ram;
  EXPECT_EQ(img.size(), os::kRamBytes);
  EXPECT_GT(img.owned_frames(), 0u);
  EXPECT_LT(img.owned_frames(), 64u);
}

// --- clone determinism ------------------------------------------------------

// Replays one recorded thread-hijack run on three coexisting snapshot
// clones and one cold machine, advancing the clones in interleaved budget
// slices. Every machine must retire the same instructions and produce the
// same findings and console — clone runs perturb neither the shared image
// nor each other.
TEST(Snapshot, InterleavedClonesReplayIdenticallyToColdBoot) {
  attacks::ThreadHijackScenario rec_sc;
  auto rec = attacks::record_run(rec_sc);
  ASSERT_TRUE(rec.ok()) << rec.error().message;

  os::MachineConfig mcfg;
  auto snap = os::capture_snapshot(mcfg.kernel);
  ASSERT_TRUE(snap.ok()) << snap.error().message;

  struct Run {
    std::unique_ptr<attacks::ThreadHijackScenario> sc;
    std::unique_ptr<os::Machine> m;
    std::unique_ptr<core::FarosEngine> engine;
    u64 instructions = 0;
    bool done = false;
  };
  std::vector<Run> runs;
  for (int i = 0; i < 4; ++i) {
    os::MachineConfig c = mcfg;
    if (i > 0) c.kernel.snapshot = snap.value();  // run 0 is the cold control
    Run r;
    r.sc = std::make_unique<attacks::ThreadHijackScenario>();
    r.m = std::make_unique<os::Machine>(c);
    r.engine = std::make_unique<core::FarosEngine>(r.m->kernel());
    r.m->attach_cpu_plugin(r.engine.get());
    r.m->add_monitor(r.engine.get());
    ASSERT_TRUE(r.m->boot().ok()) << i;
    ASSERT_TRUE(r.sc->setup(*r.m).ok()) << i;
    r.m->load_replay(rec.value().log);
    runs.push_back(std::move(r));
  }

  // Round-robin small slices so the clones genuinely run interleaved.
  const u64 kSlice = 10'000;
  bool progress = true;
  while (progress) {
    progress = false;
    for (Run& r : runs) {
      if (r.done || r.instructions >= rec_sc.budget()) continue;
      auto st = r.m->run(kSlice);
      r.instructions += st.instructions;
      if (st.all_exited || st.instructions == 0) r.done = true;
      progress = true;
    }
  }

  const Run& cold = runs[0];
  EXPECT_FALSE(cold.engine->findings().empty());
  for (size_t i = 1; i < runs.size(); ++i) {
    const Run& r = runs[i];
    EXPECT_EQ(r.instructions, cold.instructions) << "clone " << i;
    EXPECT_EQ(r.m->kernel().console(), cold.m->kernel().console())
        << "clone " << i;
    ASSERT_EQ(r.engine->findings().size(), cold.engine->findings().size())
        << "clone " << i;
    EXPECT_EQ(core::summarize_findings(r.engine->findings()).by_policy,
              core::summarize_findings(cold.engine->findings()).by_policy)
        << "clone " << i;
    EXPECT_GT(r.m->kernel().phys_mem().cow_stats().cow_faults, 0u);
  }
}

// --- farm equivalence -------------------------------------------------------

std::vector<farm::JobSpec> injection_jobs() {
  std::vector<farm::JobSpec> jobs;
  for (const auto& e : attacks::injection_corpus()) {
    farm::JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

// The farm always clones; each job must reach what attacks::analyze()
// reaches on a cold-booted machine. test_live_replay_oracle compares the
// whole analysis, clone against cold boot, on every corpus job.
TEST(SnapshotFarm, ClonedJobsMatchColdBootAnalysis) {
  farm::FarmConfig cfg;
  cfg.workers = 4;
  std::vector<farm::JobSpec> jobs = injection_jobs();
  auto report = farm::Farm(cfg).run(jobs);
  ASSERT_EQ(report.results.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const farm::JobResult& r = report.results[i];
    SCOPED_TRACE(r.name);
    ASSERT_EQ(r.status, farm::JobStatus::kOk) << r.error;
    EXPECT_EQ(r.metrics[obs::Ctr::kSnapClone], 1u);
    auto sc = jobs[i].make();
    auto cold = attacks::analyze(*sc);
    ASSERT_TRUE(cold.ok()) << cold.error().message;
    EXPECT_EQ(r.flagged, cold.value().flagged);
    EXPECT_EQ(r.findings, cold.value().findings.size());
    EXPECT_EQ(r.instructions, cold.value().recorded.stats.instructions);
    EXPECT_EQ(r.all_exited, cold.value().recorded.stats.all_exited);
    EXPECT_EQ(r.prov_lists, cold.value().prov_lists);
    EXPECT_EQ(r.tainted_bytes, cold.value().tainted_bytes);
  }
}

}  // namespace
}  // namespace faros
