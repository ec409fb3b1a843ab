// Reproduces Table II: FAROS output for an in-memory injection attack —
// the flagged instruction addresses, each with the provenance list of the
// injected code (NetFlow -> inject_client.exe -> notepad.exe).
//
// Exits 1 unless some non-whitelisted finding's fetch provenance renders
// that chain in that order: the netflow from 169.254.26.161:4444, then the
// injector process, then the victim.
#include <initializer_list>
#include <string>

#include "bench_util.h"
#include "core/report.h"

using namespace faros;

namespace {

/// True when `chain` names each of `parts` in order.
bool names_in_order(const std::string& chain,
                    std::initializer_list<const char*> parts) {
  size_t at = 0;
  for (const char* p : parts) {
    at = chain.find(p, at);
    if (at == std::string::npos) return false;
    at += std::char_traits<char>::length(p);
  }
  return true;
}

}  // namespace

int main() {
  bench::heading(
      "Table II — FAROS output for a reflective DLL injection "
      "(Meterpreter-style, victim notepad.exe)");

  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  auto run = bench::must_analyze(sc);

  std::printf("%s\n", run.report.c_str());

  std::printf("paper shape: every row carries the same chain "
              "NetFlow{169.254.26.161:4444 -> 169.254.57.168:49162} "
              "-> inject_client.exe -> notepad.exe\n");
  size_t matching = 0;
  for (size_t i = 0; i < run.findings.size(); ++i) {
    if (run.findings[i].whitelisted) continue;
    if (names_in_order(run.fetch_chains[i],
                       {"NetFlow", "169.254.26.161:4444",
                        "inject_client.exe", "notepad.exe"})) {
      ++matching;
    }
  }
  const bool ok = run.flagged && matching != 0;
  std::printf("measured: %zu flagged instruction(s), %zu with the paper "
              "chain -> result: %s\n",
              run.findings.size(), matching,
              ok ? "REPRODUCED" : "REPRODUCTION FAILURE");
  return ok ? 0 : 1;
}
