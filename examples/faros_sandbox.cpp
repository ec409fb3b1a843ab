// faros_sandbox — a small command-line front end over the whole stack, the
// shape of tool an analyst would actually run:
//
//   faros_sandbox list
//   faros_sandbox run <scenario> [--whitelist <proc>] [--no-netflow]
//                     [--no-file] [--no-process] [--no-export]
//                     [--addr-deps] [--json] [--taint-map] [--trace N]
//
// `run` records the scenario live, replays it under FAROS with the chosen
// options, and prints the verdict, report, and any requested extras.
#include <cstdio>
#include <cstring>
#include <memory>

#include "attacks/datasets.h"
#include "attacks/scenarios.h"
#include "baselines/report.h"
#include "core/analyst.h"
#include "core/report.h"
#include "vm/tracer.h"

using namespace faros;

namespace {

struct Catalog {
  std::vector<std::pair<std::string, std::string>> entries;  // name, note
};

std::unique_ptr<attacks::Scenario> make_scenario(const std::string& name) {
  using attacks::ReflectiveVariant;
  if (name == "reflective") {
    return std::make_unique<attacks::ReflectiveDllScenario>(
        ReflectiveVariant::kMeterpreter);
  }
  if (name == "reflective-transient") {
    return std::make_unique<attacks::ReflectiveDllScenario>(
        ReflectiveVariant::kMeterpreter, /*transient=*/true);
  }
  if (name == "reverse_tcp_dns") {
    return std::make_unique<attacks::ReflectiveDllScenario>(
        ReflectiveVariant::kReverseTcpDns);
  }
  if (name == "bypassuac") {
    return std::make_unique<attacks::ReflectiveDllScenario>(
        ReflectiveVariant::kBypassUac);
  }
  if (name == "hollowing") {
    return std::make_unique<attacks::HollowingScenario>();
  }
  if (name == "darkcomet" || name == "njrat") {
    return std::make_unique<attacks::RatInjectionScenario>(name);
  }
  if (name == "dropper") {
    return std::make_unique<attacks::DropperChainScenario>();
  }
  if (name == "ipc-relay") {
    return std::make_unique<attacks::IpcRelayScenario>();
  }
  if (name == "atom-bombing") {
    return std::make_unique<attacks::AtomBombingScenario>();
  }
  if (name == "jit-linking") {
    return std::make_unique<attacks::JitScenario>("pulleysystem", "java.exe",
                                                  true);
  }
  if (name == "jit-compute") {
    return std::make_unique<attacks::JitScenario>("acceleration", "java.exe",
                                                  false);
  }
  // Table IV samples by name.
  for (const auto& s : attacks::table4_families()) {
    if (s.name == name) {
      return std::make_unique<attacks::BehaviorScenario>(s.name + ".exe",
                                                         s.behaviors);
    }
  }
  for (const auto& s : attacks::table4_benign()) {
    if (s.name == name) {
      return std::make_unique<attacks::BehaviorScenario>(s.name + ".exe",
                                                         s.behaviors);
    }
  }
  return nullptr;
}

void list_scenarios() {
  std::printf("in-memory injection attacks:\n");
  std::printf("  reflective            reflective DLL inject -> notepad\n");
  std::printf("  reflective-transient  same, payload wipes itself\n");
  std::printf("  reverse_tcp_dns       self-injection, DNS-staged C2\n");
  std::printf("  bypassuac             reflective DLL inject -> firefox\n");
  std::printf("  hollowing             process hollowing of svchost\n");
  std::printf("  darkcomet | njrat     RAT code injection -> explorer\n");
  std::printf("  dropper               multi-stage dropper chain\n");
  std::printf("  ipc-relay             payload relayed over loopback IPC\n");
  std::printf("  atom-bombing          payload staged in the atom table\n");
  std::printf("jit workloads:\n");
  std::printf("  jit-linking           the Table III false positive\n");
  std::printf("  jit-compute           benign JIT workload\n");
  std::printf("behaviour samples (Table IV, non-injecting):\n");
  for (const auto& s : attacks::table4_families()) {
    std::printf("  %s\n", s.name.c_str());
  }
  for (const auto& s : attacks::table4_benign()) {
    std::printf("  %s  (benign)\n", s.name.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || std::strcmp(argv[1], "list") == 0) {
    list_scenarios();
    return 0;
  }
  if (std::strcmp(argv[1], "run") != 0 || argc < 3) {
    std::fprintf(stderr, "usage: %s list | run <scenario> [options]\n",
                 argv[0]);
    return 2;
  }
  std::string name = argv[2];
  auto scenario = make_scenario(name);
  if (!scenario) {
    std::fprintf(stderr, "unknown scenario '%s' (try `list`)\n",
                 name.c_str());
    return 2;
  }

  core::Options opts;
  bool want_json = false, want_map = false, want_cuckoo = false;
  size_t trace_n = 0;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--whitelist" && i + 1 < argc) {
      opts.whitelist.insert(argv[++i]);
    } else if (arg == "--no-netflow") {
      opts.track_netflow = false;
    } else if (arg == "--no-file") {
      opts.track_file = false;
      opts.taint_mapped_images = false;
    } else if (arg == "--no-process") {
      opts.track_process = false;
    } else if (arg == "--no-export") {
      opts.track_export = false;
    } else if (arg == "--addr-deps") {
      opts.propagate_address_deps = true;
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--taint-map") {
      want_map = true;
    } else if (arg == "--cuckoo") {
      want_cuckoo = true;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_n = static_cast<size_t>(std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return 2;
    }
  }

  // Record.
  auto rec = attacks::record_run(*scenario);
  if (!rec.ok()) {
    std::fprintf(stderr, "record failed: %s\n", rec.error().message.c_str());
    return 1;
  }
  std::printf("recorded %llu instructions, %zu external events\n",
              static_cast<unsigned long long>(rec.value().stats.instructions),
              rec.value().log.size());

  // Replay under FAROS (+ optional tracer + optional Cuckoo baseline).
  baselines::CuckooSandboxSim cuckoo;
  vm::Tracer tracer(trace_n ? trace_n : 16);
  attacks::Analysis analysis(opts);
  os::Machine& m = analysis.machine();
  const core::FarosEngine& engine = analysis.engine();
  if (trace_n) {
    tracer.chain(&analysis.engine());
    m.attach_cpu_plugin(&tracer);
  }
  if (want_cuckoo) m.add_monitor(&cuckoo);
  if (auto s = analysis.start(*scenario, &rec.value().log); !s.ok()) {
    std::fprintf(stderr, "replay %s\n", s.error().message.c_str());
    return 1;
  }
  analysis.run(scenario->budget());

  for (const auto& line : m.kernel().console()) {
    std::printf("guest| %s\n", line.c_str());
  }
  std::printf("\nverdict: %s\n",
              engine.flagged() ? "IN-MEMORY INJECTION FLAGGED" : "clean");
  if (!engine.findings().empty()) {
    std::printf("\n%s\n", engine.report().c_str());
    std::printf("%s\n",
                core::render_summary(
                    core::summarize_findings(engine.findings()))
                    .c_str());
    std::printf("%s\n",
                core::render_finding_detail(engine.findings()[0],
                                            engine.store(), engine.maps())
                    .c_str());
  }
  if (want_json) {
    std::printf("%s", core::render_findings_json(engine.findings(),
                                                 engine.store(),
                                                 engine.maps())
                          .c_str());
  }
  if (want_map) {
    std::printf("taint map:\n%s", core::taint_map(engine, m.kernel()).c_str());
  }
  if (trace_n) {
    std::printf("last %zu instructions:\n%s", trace_n,
                tracer.dump(trace_n).c_str());
  }
  if (want_cuckoo) {
    auto dump = baselines::CuckooSandboxSim::take_memory_dump(m.kernel());
    std::printf("\n--- event-based baseline, for comparison ---\n%s",
                baselines::render_sandbox_report(cuckoo, dump).c_str());
  }
  return engine.flagged() ? 0 : 1;
}
