// Kernel-resident taint channels (segment and atom shadows): unit behaviour
// plus ablation interactions — even with netflow tags disabled, the
// process-tag chain carried through these channels still trips the
// cross-process policy.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/engine.h"
#include "core/shadow.h"
#include "os/machine.h"

namespace faros {
namespace {

TEST(SegmentShadowUnit, PerByteKeyedBySegmentAndOffset) {
  core::StorageShadow shadow;
  shadow.set(100, 0, 7);
  shadow.set(100, 1, 8);
  shadow.set(200, 0, 9);
  EXPECT_EQ(shadow.get(100, 0), 7u);
  EXPECT_EQ(shadow.get(100, 1), 8u);
  EXPECT_EQ(shadow.get(200, 0), 9u);
  EXPECT_EQ(shadow.get(200, 1), core::kEmptyProv);
  EXPECT_EQ(shadow.get(101, 0), core::kEmptyProv);
  shadow.set(100, 0, core::kEmptyProv);
  EXPECT_EQ(shadow.get(100, 0), core::kEmptyProv);
  EXPECT_EQ(shadow.tainted_bytes(), 2u);
}

TEST(ShadowChannels, CleanSendOnOneSegmentKeepsAnotherSegmentsProvenance) {
  // Segment bytes were keyed by hash_combine(segment, offset), and
  // (1, 4097) shares that key with (2, 0): a clean one-byte loopback send
  // on segment 2 erased byte 4097 of a tainted 4098-byte segment 1.
  os::Machine m;
  core::Options opts;
  opts.taint_mapped_images = false;  // only the packet below taints
  core::FarosEngine engine(m.kernel(), opts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());
  os::ImageBuilder ib("relay.exe", os::kUserImageBase);
  ib.asm_().label("_start");
  ib.asm_().halt();
  ib.asm_().label("buf");
  ib.asm_().zeros(8192);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/relay.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/relay.exe", /*suspended=*/true);
  ASSERT_TRUE(pid.ok());
  const os::Process& p = *m.kernel().find(pid.value());
  auto xfer = [&](VAddr va, u32 len) {
    return osi::GuestXfer{p.info(), &p.as, va, len};
  };

  constexpr u32 kLen = 4098;
  const VAddr payload =
      os::kUserImageBase + ib.asm_().label_offset("buf").value();
  const VAddr clean = payload + kLen;
  const VAddr dst = clean + 1;
  const FlowTuple c2{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};
  const FlowTuple loopback{0x7f000001, 5000, 0x7f000001, 5001};
  engine.on_packet_to_guest(xfer(payload, kLen), c2);
  engine.on_guest_send(xfer(payload, kLen), loopback, {1, 0, true});
  engine.on_guest_send(xfer(clean, 1), loopback, {2, 0, true});
  engine.on_packet_to_guest(xfer(dst, 1), loopback, {1, kLen - 1, true});

  const core::ProvTag c2_tag = core::ProvTag::netflow(0);
  ASSERT_EQ(engine.maps().netflow.get(c2_tag.index()), c2);
  EXPECT_TRUE(engine.store().contains(engine.prov_at(p.as, dst), c2_tag));
}

TEST(ShadowChannels, NetworkBorneChannelsNeedTheNetflowOrigin) {
  // Ablation: with netflow insertion off, a payload whose ONLY origin is
  // the network never becomes tainted, so neither policy can fire — the
  // same result the ablation bench shows for reflective injection. (The
  // file-borne hollowing attack, by contrast, survives this ablation.)
  core::Options opts;
  opts.track_netflow = false;
  {
    attacks::IpcRelayScenario sc;
    auto run = attacks::analyze(sc, opts);
    ASSERT_TRUE(run.ok()) << run.error().message;
    EXPECT_FALSE(run.value().flagged) << run.value().report;
  }
  {
    attacks::AtomBombingScenario sc;
    auto run = attacks::analyze(sc, opts);
    ASSERT_TRUE(run.ok()) << run.error().message;
    EXPECT_FALSE(run.value().flagged) << run.value().report;
  }
}

TEST(ShadowChannels, ChannelsStillFlagWithFullTagSet) {
  // Sanity companion to the ablation above: with the full tag set both
  // kernel-resident channels produce both-process + netflow chains.
  attacks::AtomBombingScenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE(run.value().flagged);
  const auto& f = run.value().findings[0];
  EXPECT_GE(run.value().engine_stats.export_table_reads, 1u);
  (void)f;
}

TEST(ShadowChannels, NewScenariosReplayDeterministically) {
  {
    attacks::AtomBombingScenario sc;
    auto rec = attacks::record_run(sc);
    ASSERT_TRUE(rec.ok());
    auto rep = attacks::replay_run(sc, rec.value().log, nullptr, {});
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().stats.instructions,
              rec.value().stats.instructions);
    EXPECT_EQ(rep.value().console, rec.value().console);
  }
  {
    attacks::IpcRelayScenario sc;
    auto rec = attacks::record_run(sc);
    ASSERT_TRUE(rec.ok());
    auto rep = attacks::replay_run(sc, rec.value().log, nullptr, {});
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().stats.instructions,
              rec.value().stats.instructions);
    EXPECT_EQ(rep.value().console, rec.value().console);
  }
  {
    attacks::DropperChainScenario sc;
    auto rec = attacks::record_run(sc);
    ASSERT_TRUE(rec.ok());
    auto rep = attacks::replay_run(sc, rec.value().log, nullptr, {});
    ASSERT_TRUE(rep.ok());
    EXPECT_EQ(rep.value().stats.instructions,
              rec.value().stats.instructions);
    EXPECT_EQ(rep.value().console, rec.value().console);
  }
}

TEST(ShadowChannels, BenignIdleRunLeavesOnlyExportTableTaint) {
  // With image tainting off, a benign idle workload leaves nothing tainted
  // except the module export tables seeded at boot; with export tracking
  // also off, the shadow is completely empty.
  core::Options opts;
  opts.taint_mapped_images = false;
  attacks::BehaviorScenario benign("plain.exe", {attacks::Behavior::kIdle});
  auto run = attacks::analyze(benign, opts);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run.value().flagged);
  // 4 bytes per export entry across ntdll/user32/kernel32.
  EXPECT_EQ(run.value().tainted_bytes, 72u);

  core::Options bare = opts;
  bare.track_export = false;
  auto run2 = attacks::analyze(benign, bare);
  ASSERT_TRUE(run2.ok());
  EXPECT_EQ(run2.value().tainted_bytes, 0u);
}

}  // namespace
}  // namespace faros
