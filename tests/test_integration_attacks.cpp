// End-to-end integration: the six in-memory-injection scenarios must be
// flagged with the right policies and provenance chains; record/replay must
// be deterministic.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/report.h"

namespace faros {
namespace {

using attacks::AnalyzedRun;
using attacks::ReflectiveDllScenario;
using attacks::ReflectiveVariant;

bool console_contains(const std::vector<std::string>& console,
                      const std::string& needle) {
  for (const auto& line : console) {
    if (line.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(ReflectiveDllInjection, MeterpreterVariantIsFlagged) {
  ReflectiveDllScenario sc(ReflectiveVariant::kMeterpreter);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const AnalyzedRun& r = run.value();

  // The injection actually happened: the victim popped the message.
  EXPECT_TRUE(console_contains(r.recorded.console,
                               "reflective payload in notepad.exe"))
      << "console:\n";
  EXPECT_TRUE(r.flagged) << r.report;
  ASSERT_FALSE(r.findings.empty());

  // The flagged instruction executes inside the victim.
  bool in_victim = false;
  bool netflow_policy = false;
  for (const auto& f : r.findings) {
    if (f.proc.name == "notepad.exe") in_victim = true;
    if (f.policy == "netflow-export-confluence") netflow_policy = true;
  }
  EXPECT_TRUE(in_victim);
  EXPECT_TRUE(netflow_policy);
  EXPECT_TRUE(r.recorded.traps.empty()) << r.recorded.traps[0];
}

TEST(ReflectiveDllInjection, ReverseTcpDnsSelfInjectionIsFlagged) {
  ReflectiveDllScenario sc(ReflectiveVariant::kReverseTcpDns);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged) << run.value().report;
  EXPECT_TRUE(console_contains(run.value().recorded.console,
                               "reflective payload in inject_client.exe"));
  EXPECT_TRUE(run.value().recorded.traps.empty())
      << run.value().recorded.traps[0];
}

TEST(ReflectiveDllInjection, BypassUacVariantIsFlaggedInFirefox) {
  ReflectiveDllScenario sc(ReflectiveVariant::kBypassUac);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged);
  bool in_firefox = false;
  for (const auto& f : run.value().findings) {
    if (f.proc.name == "firefox.exe") in_firefox = true;
  }
  EXPECT_TRUE(in_firefox) << run.value().report;
}

TEST(ProcessHollowing, IsFlaggedViaCrossProcessPolicy) {
  attacks::HollowingScenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged) << run.value().report;
  EXPECT_TRUE(console_contains(run.value().recorded.console,
                               "svchost hollowed"));
  bool cross_policy_in_svchost = false;
  for (const auto& f : run.value().findings) {
    if (f.policy == "cross-process-export-confluence" &&
        f.proc.name == "svchost.exe") {
      cross_policy_in_svchost = true;
    }
  }
  EXPECT_TRUE(cross_policy_in_svchost) << run.value().report;
  EXPECT_TRUE(run.value().recorded.traps.empty())
      << run.value().recorded.traps[0];
}

TEST(CodeInjection, DarkCometAnalogueIsFlagged) {
  attacks::RatInjectionScenario sc("darkcomet");
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged) << run.value().report;
  bool in_explorer = false;
  for (const auto& f : run.value().findings) {
    if (f.proc.name == "explorer.exe") in_explorer = true;
  }
  EXPECT_TRUE(in_explorer);
  // The RAT also exercised the benign command paths.
  EXPECT_TRUE(console_contains(run.value().recorded.console, "helper done"));
}

TEST(Workloads, BenignBehaviorSampleIsNotFlagged) {
  attacks::BehaviorScenario sc(
      "TeamViewer",
      {attacks::Behavior::kIdle, attacks::Behavior::kRun,
       attacks::Behavior::kRemoteDesktop, attacks::Behavior::kDownload});
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_FALSE(run.value().flagged) << run.value().report;
  EXPECT_TRUE(run.value().recorded.traps.empty())
      << run.value().recorded.traps[0];
  EXPECT_TRUE(run.value().recorded.stats.all_exited);
}

TEST(Workloads, LinkingJitWorkloadIsAFalsePositive) {
  attacks::JitScenario sc("pulleysystem", "java.exe", /*linking=*/true);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged) << run.value().report;  // the known FP
}

TEST(Workloads, ComputeJitWorkloadIsNotFlagged) {
  attacks::JitScenario sc("acceleration", "java.exe", /*linking=*/false);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_FALSE(run.value().flagged) << run.value().report;
  EXPECT_TRUE(run.value().recorded.traps.empty())
      << run.value().recorded.traps[0];
}

}  // namespace
}  // namespace faros
