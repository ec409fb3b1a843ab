// Snapshot/COW guest cloning (os/snapshot.h + vm/phys_mem.h): clone
// isolation from the frozen image and from sibling clones, COW fault
// accounting, the shared zero frame and sparse capture, FrameAllocator
// state round-trips, boot-from-snapshot equivalence with a cold boot,
// config-mismatch rejection, interleaved clone determinism, and the farm's
// cloned jobs against cold-booted analyses.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "attacks/corpus.h"
#include "attacks/scenarios.h"
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
  EXPECT_EQ(snap.value()->ram_bytes, cfg.ram_bytes);
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
  EXPECT_EQ(img.size(), cfg.ram_bytes);
  EXPECT_GT(img.owned_frames(), 0u);
  EXPECT_LT(img.owned_frames(), 64u);
}

TEST(Snapshot, ConfigMismatchIsRejectedAtBoot) {
  os::KernelConfig cfg;
  auto snap = os::capture_snapshot(cfg);
  ASSERT_TRUE(snap.ok()) << snap.error().message;

  os::KernelConfig wrong = cfg;
  wrong.rng_seed = cfg.rng_seed + 1;
  wrong.snapshot = snap.value();
  os::Kernel k(wrong);
  auto b = k.boot();
  ASSERT_FALSE(b.ok());
  EXPECT_NE(b.error().message.find("mismatch"), std::string::npos);
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
