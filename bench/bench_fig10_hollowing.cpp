// Reproduces Figure 10: provenance tracking for process hollowing /
// replacement — process_hollowing.exe -> svchost.exe -> export-table read,
// with NO netflow anywhere in the chain (the payload ships inside the
// loader's image, like the paper's Lab 3-3 sample).
//
// Exits 1 unless some non-whitelisted cross-process-policy finding's fetch
// provenance renders File invoice.exe -> process_hollowing.exe ->
// svchost.exe, with no netflow finding and no netflow in that chain.
#include "bench_util.h"
#include "core/report.h"

using namespace faros;

int main() {
  bench::heading(
      "Figure 10 — provenance tracking for process hollowing/replacement");

  attacks::HollowingScenario sc;
  auto run = bench::must_analyze(sc);

  std::printf("paper shape: provenance of the flagged instruction runs "
              "process_hollowing.exe -> svchost.exe (svchost is a child of "
              "the loader); flagged without any netflow tag\n\n");
  std::printf("measured:\n%s\n", run.report.c_str());

  int cross = 0, netflow = 0;
  for (size_t i = 0; i < run.findings.size(); ++i) {
    const core::Finding& f = run.findings[i];
    if (f.policy == "netflow-export-confluence") ++netflow;
    if (f.whitelisted || f.policy != "cross-process-export-confluence") {
      continue;
    }
    const std::string& chain = run.fetch_chains[i];
    if (bench::names_in_order(chain, {"File: ", "invoice.exe",
                                      "process_hollowing.exe",
                                      "svchost.exe"}) &&
        bench::process_hops(chain) == 2 &&
        chain.find("NetFlow") == std::string::npos) {
      ++cross;
    }
  }
  std::printf("cross-process-policy findings with the paper chain: %d "
              "(expected > 0)\n",
              cross);
  std::printf("netflow-policy findings:       %d (expected 0 — no network "
              "involvement)\n",
              netflow);
  bool ok = cross > 0 && netflow == 0 && run.flagged;
  std::printf("result: %s\n", ok ? "REPRODUCED" : "REPRODUCTION FAILURE");
  return ok ? 0 : 1;
}
