// Reproduces the headline evaluation result (Section VI): all six advanced
// in-memory-injection malware samples are flagged —
//   3x reflective DLL injection (reflective_dll_inject, reverse_tcp_dns,
//      bypassuac_injection), 1x process hollowing/replacement, and
//   2x code/process injection (DarkComet and Njrat analogues).
// Each must be flagged by the policy EXPERIMENTS.md lists for it:
// netflow-export-confluence, except cross-process-export-confluence for
// the hollowing; anything else exits 1.
#include <memory>

#include "bench_util.h"

using namespace faros;

int main() {
  bench::heading("Headline — six in-memory injection attacks vs FAROS");

  const std::string netflow = "netflow-export-confluence";
  const std::string cross = "cross-process-export-confluence";
  struct Entry {
    std::string technique;
    std::string policy;  // the policy EXPERIMENTS.md lists
    std::unique_ptr<attacks::Scenario> scenario;
  };
  std::vector<Entry> entries;
  entries.push_back({"reflective DLL injection", netflow,
                     std::make_unique<attacks::ReflectiveDllScenario>(
                         attacks::ReflectiveVariant::kMeterpreter)});
  entries.push_back({"reflective DLL injection", netflow,
                     std::make_unique<attacks::ReflectiveDllScenario>(
                         attacks::ReflectiveVariant::kReverseTcpDns)});
  entries.push_back({"reflective DLL injection", netflow,
                     std::make_unique<attacks::ReflectiveDllScenario>(
                         attacks::ReflectiveVariant::kBypassUac)});
  entries.push_back({"process hollowing/replacement", cross,
                     std::make_unique<attacks::HollowingScenario>()});
  entries.push_back({"code/process injection", netflow,
                     std::make_unique<attacks::RatInjectionScenario>(
                         "darkcomet")});
  entries.push_back({"code/process injection", netflow,
                     std::make_unique<attacks::RatInjectionScenario>(
                         "njrat")});

  std::printf("%-28s %-32s %-9s %s\n", "sample", "technique", "flagged",
              "policy");
  int flagged = 0;
  int as_listed = 0;
  for (auto& e : entries) {
    auto run = bench::must_analyze(*e.scenario);
    flagged += run.flagged;
    // The listed policy among the findings that flag the run.
    bool listed = false;
    std::string policy = "-";
    for (const core::Finding& f : run.findings) {
      if (f.whitelisted || f.warn_only) continue;
      if (policy == "-" || f.policy == e.policy) policy = f.policy;
      listed |= f.policy == e.policy;
    }
    as_listed += run.flagged && listed;
    std::printf("%-28s %-32s %-9s %s\n", e.scenario->name().c_str(),
                e.technique.c_str(), run.flagged ? "YES" : "NO",
                policy.c_str());
    if (!listed) std::printf("  ^ not flagged by %s\n", e.policy.c_str());
  }

  const bool ok = flagged == 6 && as_listed == 6;
  std::printf("\npaper: 6/6 flagged.  measured: %d/%zu flagged, %d/%zu by "
              "the listed policy\n",
              flagged, entries.size(), as_listed, entries.size());
  std::printf("result: %s\n", ok ? "REPRODUCED" : "REPRODUCTION FAILURE");
  return ok ? 0 : 1;
}
