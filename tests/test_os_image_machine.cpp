// SX32 image format and Machine record/replay determinism.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "common/rng.h"
#include "os/image.h"
#include "os/machine.h"

namespace faros::os {
namespace {

TEST(Image, BuildSerializeDeserializeRoundTrip) {
  ImageBuilder ib("demo.exe", kUserImageBase);
  ib.import_symbol("ntdll.dll", "RtlMemcpy", "iat_memcpy");
  ib.export_symbol("DemoEntry", "_start");
  auto& a = ib.asm_();
  a.label("_start");
  a.nop();
  a.halt();
  a.align(8);
  a.label("iat_memcpy");
  a.data_u32(0);
  auto img = ib.build();
  ASSERT_TRUE(img.ok()) << img.error().message;

  Bytes wire = img.value().serialize();
  auto back = Image::deserialize(wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value().name, "demo.exe");
  EXPECT_EQ(back.value().base_va, kUserImageBase);
  EXPECT_EQ(back.value().entry_offset, 0u);
  EXPECT_EQ(back.value().blob, img.value().blob);
  ASSERT_EQ(back.value().imports.size(), 1u);
  EXPECT_EQ(back.value().imports[0].module_hash, fnv1a32("ntdll.dll"));
  EXPECT_EQ(back.value().imports[0].slot_offset, 16u);
  ASSERT_EQ(back.value().exports.size(), 1u);
  EXPECT_EQ(back.value().exports[0].symbol_hash, fnv1a32("DemoEntry"));
}

TEST(Image, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Image::deserialize(Bytes{1, 2, 3}).ok());
  ImageBuilder ib("x.exe", kUserImageBase);
  ib.asm_().halt();
  ib.set_entry("_start");
  ib.asm_().label("_start");
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  Bytes wire = img.value().serialize();
  Bytes truncated(wire.begin(), wire.begin() + wire.size() / 2);
  EXPECT_FALSE(Image::deserialize(truncated).ok());
}

TEST(Image, BuilderReportsMissingLabels) {
  ImageBuilder ib("x.exe", kUserImageBase);
  ib.set_entry("nope");
  ib.asm_().halt();
  EXPECT_FALSE(ib.build().ok());

  ImageBuilder ib2("y.exe", kUserImageBase);
  ib2.asm_().label("_start");
  ib2.asm_().halt();
  ib2.export_symbol("Sym", "missing");
  EXPECT_FALSE(ib2.build().ok());
}

// ---------------------------------------------------------------------------
// Record/replay determinism: replaying a recorded scenario produces the
// exact same instruction count, console output and process outcomes — the
// property FAROS' offline analysis rests on.

class DeterminismTest
    : public ::testing::TestWithParam<attacks::ReflectiveVariant> {};

TEST_P(DeterminismTest, ReplayReproducesRunExactly) {
  attacks::ReflectiveDllScenario sc(GetParam());
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok()) << rec.error().message;

  auto rep = attacks::replay_run(sc, rec.value().log, nullptr, {});
  ASSERT_TRUE(rep.ok()) << rep.error().message;
  EXPECT_EQ(rep.value().stats.instructions, rec.value().stats.instructions);
  EXPECT_EQ(rep.value().console, rec.value().console);
  EXPECT_EQ(rep.value().traps, rec.value().traps);

  // Replaying twice is also identical (replay of replay-stable state).
  auto rep2 = attacks::replay_run(sc, rec.value().log, nullptr, {});
  ASSERT_TRUE(rep2.ok());
  EXPECT_EQ(rep2.value().stats.instructions,
            rep.value().stats.instructions);
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, DeterminismTest,
    ::testing::Values(attacks::ReflectiveVariant::kMeterpreter,
                      attacks::ReflectiveVariant::kReverseTcpDns,
                      attacks::ReflectiveVariant::kBypassUac),
    [](const auto& info) {
      switch (info.param) {
        case attacks::ReflectiveVariant::kMeterpreter: return "meterpreter";
        case attacks::ReflectiveVariant::kReverseTcpDns: return "reverse_tcp";
        case attacks::ReflectiveVariant::kBypassUac: return "bypassuac";
      }
      return "x";
    });

TEST(MachineDeterminism, AttachingPluginsDoesNotPerturbExecution) {
  // FAROS attached to the live run must observe the identical run:
  // instruction counts and console match a plugin-free replay.
  attacks::HollowingScenario sc;
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok());
  auto plain = attacks::replay_run(sc, rec.value().log, nullptr, {});
  ASSERT_TRUE(plain.ok());

  auto analyzed = attacks::analyze(sc);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed.value().recorded.stats.instructions,
            plain.value().stats.instructions);
  EXPECT_EQ(analyzed.value().recorded.console, plain.value().console);
}

TEST(MachineDeterminism, ReplayLogSurvivesSerialization) {
  attacks::RatInjectionScenario sc("njrat");
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok());
  auto wire = rec.value().log.serialize();
  auto log = vm::ReplayLog::deserialize(wire);
  ASSERT_TRUE(log.ok());
  auto rep = attacks::replay_run(sc, log.value(), nullptr, {});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().stats.instructions, rec.value().stats.instructions);
  EXPECT_EQ(rep.value().console, rec.value().console);
}

TEST(Machine, DeadlockReportedWhenNothingRunnable) {
  // A process blocking on a device with no input and no event source.
  Machine m;
  ASSERT_TRUE(m.boot().ok());
  ImageBuilder ib("block.exe", kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi(vm::R1, 1);
  a.movi_label(vm::R2, "buf");
  a.movi(vm::R3, 4);
  a.movi(vm::R0, static_cast<u32>(Sys::kNtReadDevice));
  a.syscall_();
  a.halt();
  a.align(8);
  a.label("buf");
  a.zeros(4);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/block.exe", img.value().serialize());
  ASSERT_TRUE(m.kernel().spawn("C:/block.exe").ok());
  auto stats = m.run(100000);
  EXPECT_TRUE(stats.deadlocked);
  EXPECT_FALSE(stats.all_exited);
  EXPECT_LT(stats.instructions, 100u);
}

}  // namespace
}  // namespace faros::os
