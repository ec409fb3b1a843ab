// Reproduces Figures 7, 8 and 9: provenance tracking for the three
// Metasploit reflective-DLL-injection modules. For each variant we print
// the flagged instruction, the provenance list of its bytes, and the
// provenance of the export-table read — the two chains the paper draws.
//
// Exits 1 unless, for every variant, some non-whitelisted netflow-policy
// finding's fetch provenance renders NetFlow -> inject_client.exe, then
// the victim for the cross-process modules (notepad.exe, firefox.exe) and
// no further process for the self-injecting one, and the bytes it read
// render ExportTable -> the process running the injected code.
#include "bench_util.h"
#include "core/report.h"

using namespace faros;

namespace {

void run_variant(attacks::ReflectiveVariant variant, const char* figure,
                 const char* module, const char* victim,
                 const char* expected_chain, int* failures) {
  attacks::ReflectiveDllScenario sc(variant);
  auto run = bench::must_analyze(sc);
  std::printf("\n--- %s: Metasploit module `%s` ---\n", figure, module);
  std::printf("paper shape: %s\n", expected_chain);
  std::printf("measured:\n%s", run.report.c_str());
  size_t matching = 0;
  for (size_t i = 0; i < run.findings.size(); ++i) {
    const core::Finding& f = run.findings[i];
    if (f.whitelisted || f.policy != "netflow-export-confluence") continue;
    // Fetch: NetFlow -> inject_client.exe [-> victim], and nothing after.
    // The process running the injected code also reads the table.
    const std::string& chain = run.fetch_chains[i];
    const bool fetch_ok =
        bench::names_in_order(chain, {"NetFlow", "inject_client.exe",
                                      victim ? victim : ""}) &&
        bench::process_hops(chain) == (victim ? 2u : 1u);
    const bool read_ok = bench::names_in_order(
        run.target_chains[i],
        {"ExportTable", victim ? victim : "inject_client.exe"});
    std::printf("export-table read: %s\n", run.target_chains[i].c_str());
    if (fetch_ok && read_ok) ++matching;
  }
  std::printf("netflow-policy findings with the paper chains: %zu\n",
              matching);
  if (matching == 0) ++*failures;
}

}  // namespace

int main() {
  bench::heading(
      "Figures 7-9 — provenance tracking for reflective DLL injection");
  int failures = 0;
  run_variant(attacks::ReflectiveVariant::kMeterpreter, "Figure 7",
              "reflective_dll_inject", "notepad.exe",
              "NetFlow{...:4444 -> ...:49162} -> inject_client.exe -> "
              "notepad.exe, reading an ExportTable-tagged address",
              &failures);
  run_variant(attacks::ReflectiveVariant::kReverseTcpDns, "Figure 8",
              "reverse_tcp_dns", nullptr,
              "NetFlow -> inject_client.exe (shellcode and target are the "
              "same process), reading an ExportTable-tagged address",
              &failures);
  run_variant(attacks::ReflectiveVariant::kBypassUac, "Figure 9",
              "bypassuac_injection", "firefox.exe",
              "NetFlow -> inject_client.exe -> firefox.exe, reading an "
              "ExportTable-tagged address",
              &failures);
  std::printf("\nresult: %s (3 variants, %d failure(s))\n",
              failures == 0 ? "ALL FLAGGED" : "REPRODUCTION FAILURE",
              failures);
  return failures == 0 ? 0 : 1;
}
