// Micro-benchmarks (google-benchmark) for the DIFT engine's hot paths:
// interned provenance-list operations, shadow-memory access, and the raw
// interpreter with and without the taint plugin attached — the per-
// instruction cost that Table V's macro numbers are made of.
//
// The interpreter runs measure the three regimes of the paged shadow
// separately:
//  * fully clean   — no taint anywhere; the engine cost is the untainted
//                    fast path (one page-summary probe per fetch/access);
//  * image-tainted — default options: every code page carries its backing
//                    file's provenance, so each fetch exercises the
//                    steady-state fetch-provenance cache;
//  * tainted copy  — a guest loop streaming loads/stores over a netflow-
//                    tainted buffer: the per-byte propagation path proper.
//
// The _rules variants rerun the tainted regimes with a policy ruleset
// binding every trigger (kDispatchRules below), isolating what the
// declarative rule-dispatch layer costs over the built-in fast path.
//
// The _btc variants rerun the core regimes with the block-translation
// cache on (the production default): decode-once dispatch plus the
// engine's elision fast path. The idle _btc regimes are NtYield spinners
// idling with a tainted register they never read (an injected payload's
// shape), one process and three from one image; the divspin regime's hot
// block divides by a constant. The gate requires all three to run almost
// entirely elided.
//
// With FAROS_BENCH_JSON=<path> set, main() appends one JSONL record per
// regime (median of five fixed-work wall-clock samples, independent of
// google-benchmark's timing machinery) — the format committed in
// BENCH_shadow.json. With FAROS_BENCH_GATE set, the block-cache overhead
// ceiling and the elision coverage gates are enforced and gate failure
// exits nonzero.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <map>

#include "attacks/guest_common.h"
#include "attacks/programs.h"
#include "bench_util.h"
#include "core/engine.h"
#include "core/rules.h"
#include "os/machine.h"
#include "vm/btcache.h"

using namespace faros;

namespace {

void BM_ProvStoreAppend(benchmark::State& state) {
  core::ProvStore store;
  core::ProvListId id = store.intern({core::ProvTag::netflow(0)});
  u16 i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.append(id, core::ProvTag::process(i)));
    i = static_cast<u16>((i + 1) % 64);
  }
}
BENCHMARK(BM_ProvStoreAppend);

void BM_ProvStoreMergeMemoized(benchmark::State& state) {
  core::ProvStore store;
  auto a = store.intern({core::ProvTag::netflow(0), core::ProvTag::process(1)});
  auto b = store.intern({core::ProvTag::file(2), core::ProvTag::process(3)});
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.merge(a, b));
  }
}
BENCHMARK(BM_ProvStoreMergeMemoized);

void BM_ShadowMemorySetGet(benchmark::State& state) {
  core::ShadowMemory shadow;
  u64 addr = 0;
  for (auto _ : state) {
    shadow.set(addr & 0xffff, 1);
    benchmark::DoNotOptimize(shadow.get((addr + 8) & 0xffff));
    ++addr;
  }
}
BENCHMARK(BM_ShadowMemorySetGet);

/// The clean-probe cost the untainted fast path rides on: page-summary
/// checks against a shadow with no taint anywhere.
void BM_ShadowMemoryCleanProbe(benchmark::State& state) {
  core::ShadowMemory shadow;
  u64 addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(shadow.range_tainted(addr & 0xffffff, 8));
    addr += 8;
  }
}
BENCHMARK(BM_ShadowMemoryCleanProbe);

/// Page-level clear: taint a full page, then drop it in one clear_range.
void BM_ShadowMemoryPageClear(benchmark::State& state) {
  core::ShadowMemory shadow;
  for (auto _ : state) {
    for (u32 i = 0; i < core::ShadowMemory::kPageBytes; i += 64) {
      shadow.set(0x10000 + i, 1);
    }
    shadow.clear_range(0x10000, core::ShadowMemory::kPageBytes);
  }
}
BENCHMARK(BM_ShadowMemoryPageClear);

/// A compute-heavy guest workload for interpreter throughput.
void setup_spinner(os::Machine& m) {
  os::ImageBuilder ib("spin.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi(vm::R1, 0);
  a.movi(vm::R2, 3);
  a.label("loop");
  a.mul(vm::R2, vm::R2, vm::R2);
  a.addi(vm::R2, vm::R2, 7);
  a.addi(vm::R1, vm::R1, 1);
  a.jmp("loop");
  auto img = ib.build();
  m.kernel().vfs().create("C:/spin.exe", img.value().serialize());
  (void)m.kernel().spawn("C:/spin.exe");
}

struct CopierInfo {
  os::Pid pid = 0;
  VAddr buf_va = 0;
};

/// A memory-heavy guest workload: stream 64 bytes buf -> dst forever.
/// Returns the pid and the VA of "buf" so the harness can taint it.
CopierInfo setup_copier(os::Machine& m) {
  os::ImageBuilder ib("copy.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi_label(vm::R9, "buf");
  a.movi_label(vm::R10, "dst");
  a.label("loop");
  for (int i = 0; i < 16; ++i) {
    a.ld32(vm::R3, vm::R9, i * 4);
    a.st32(vm::R10, i * 4, vm::R3);
  }
  a.jmp("loop");
  a.align(8);
  a.label("buf");
  a.zeros(64);
  a.label("dst");
  a.zeros(64);
  auto img = ib.build();
  m.kernel().vfs().create("C:/copy.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/copy.exe");
  if (!pid.ok()) {
    std::fprintf(stderr, "FATAL: spawn copy.exe: %s\n",
                 pid.error().message.c_str());
    std::exit(1);
  }
  return {pid.value(),
          os::kUserImageBase + ib.asm_().label_offset("buf").value()};
}

/// A compute workload whose hot block carries a constant-divisor kDivu:
/// kDivu is excluded from vm::taint_inert (a zero divisor traps), yet the
/// block cache offers its blocks and the fast body stops exactly at a
/// trap, so this loop runs elided.
os::Image build_divspin_image() {
  os::ImageBuilder ib("divspin.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi(vm::R1, 0);
  a.movi(vm::R2, 3);
  a.label("loop");
  a.mul(vm::R2, vm::R2, vm::R2);
  a.addi(vm::R2, vm::R2, 7);
  a.movi(vm::R7, 9);
  a.divu(vm::R3, vm::R2, vm::R7);
  a.addi(vm::R1, vm::R1, 1);
  a.jmp("loop");
  auto img = ib.build();
  if (!img.ok()) {
    std::fprintf(stderr, "FATAL: build divspin.exe: %s\n",
                 img.error().message.c_str());
    std::exit(1);
  }
  return img.value();
}

void setup_divspinner(os::Machine& m, const os::Image& img) {
  m.kernel().vfs().create("C:/divspin.exe", img.serialize());
  (void)m.kernel().spawn("C:/divspin.exe");
}

/// `n` NtYield spinners from one image, each idling with a tainted r5
/// (attacks::build_dirty_idle_program).
void setup_idlers(os::Machine& m, u32 n) {
  auto img = attacks::build_dirty_idle_program("idle.exe");
  if (!img.ok()) {
    std::fprintf(stderr, "FATAL: build idle.exe: %s\n",
                 img.error().message.c_str());
    std::exit(1);
  }
  m.kernel().vfs().create("C:/idle.exe", img.value().serialize());
  for (u32 i = 0; i < n; ++i) (void)m.kernel().spawn("C:/idle.exe");
}

constexpr FlowTuple kBenchFlow{attacks::kAttackerIp, attacks::kAttackerPort,
                               0xa9fe39a8, 49162};

/// Taints the copier's source buffer with a netflow tag (the packet-delivery
/// insertion point, bypassing the socket plumbing the bench doesn't need).
void taint_copier_buf(os::Machine& m, osi::GuestMonitor& mon,
                      const CopierInfo& info) {
  os::Process* p = m.kernel().find(info.pid);
  if (!p) {
    std::fprintf(stderr, "FATAL: copier process not found\n");
    std::exit(1);
  }
  osi::GuestXfer xfer{p->info(), &p->as, info.buf_va, 64};
  mon.on_packet_to_guest(xfer, kBenchFlow);
}

core::Options clean_options() {
  core::Options o;
  // No mapped-image or file tainting: nothing in the system ever carries
  // provenance, so every instruction takes the untainted fast path.
  o.track_file = false;
  o.taint_mapped_images = false;
  return o;
}

void BM_InterpreterBare(benchmark::State& state) {
  os::Machine m;
  (void)m.boot();
  setup_spinner(m);
  for (auto _ : state) {
    m.run(100000);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_InterpreterBare)->Unit(benchmark::kMillisecond);

/// Default options: code pages carry their image's file tag, so every
/// fetch is from tainted memory (the Table V regime).
void BM_InterpreterWithFaros(benchmark::State& state) {
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  (void)m.boot();
  setup_spinner(m);
  for (auto _ : state) {
    m.run(100000);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_InterpreterWithFaros)->Unit(benchmark::kMillisecond);

/// Nothing tainted anywhere: the pure untainted-fast-path tax.
void BM_InterpreterFarosClean(benchmark::State& state) {
  os::Machine m;
  core::FarosEngine engine(m.kernel(), clean_options());
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  (void)m.boot();
  setup_spinner(m);
  for (auto _ : state) {
    m.run(100000);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_InterpreterFarosClean)->Unit(benchmark::kMillisecond);

/// Loads/stores streaming over a netflow-tainted buffer: the per-byte
/// propagation path (merge/append memo hits, shadow writes).
void BM_InterpreterFarosTaintedCopy(benchmark::State& state) {
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  (void)m.boot();
  CopierInfo copier = setup_copier(m);
  m.run(1000);  // map the image, schedule the copier
  taint_copier_buf(m, engine, copier);
  for (auto _ : state) {
    m.run(100000);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_InterpreterFarosTaintedCopy)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Fixed-work JSONL summary (FAROS_BENCH_JSON), one record per regime.

struct Regime {
  const char* name;
  bool attach_engine;
  bool clean;
  bool copier;
  bool metrics = true;  // Options::collect_metrics for this run
  const char* rules_json = nullptr;  // non-null: replace the built-in rules
  // Block-translation cache (vm/btcache.h). Off for the legacy regimes so
  // their numbers stay comparable across releases; the _btc regimes measure
  // the cached interpreter with elision.
  bool block_cache = false;
  // The divspin workload (hot block with a constant-divisor kDivu) instead
  // of the spinner.
  bool divspin = false;
  // Nonzero: that many setup_idlers() spinners instead of the spinner.
  u32 idlers = 0;
};

/// A ruleset binding every trigger with predicates that evaluate but never
/// match on these workloads: the _rules regimes measure pure dispatch +
/// predicate cost (the worst case the declarative engine adds), with no
/// finding ever recorded.
constexpr const char* kDispatchRules = R"({"rules":[
  {"id":"bench-load","trigger":"tainted-load",
   "when":["target has-type:export-table","fetch process-count>=9"]},
  {"id":"bench-store","trigger":"tainted-store",
   "when":["value process-count>=9"]},
  {"id":"bench-exec","trigger":"exec-page-write",
   "when":["value distinct-netflows>=9"]},
  {"id":"bench-fetch","trigger":"tainted-fetch",
   "when":["fetch process-count>=9"]},
  {"id":"bench-sys","trigger":"syscall-arg",
   "when":["target has-type:netflow"]}]})";

struct RegimeRun {
  double seconds = 0;
  obs::MetricSnapshot metrics;  // collected=false for bare / _noobs runs
};

RegimeRun run_regime(const Regime& r, u64 insns) {
  os::MachineConfig mc;
  mc.kernel.block_cache = r.block_cache;
  os::Machine m(mc);
  core::Options opts = r.clean ? clean_options() : core::Options{};
  opts.collect_metrics = r.metrics;
  if (r.rules_json) {
    auto rs = core::parse_ruleset_json(r.rules_json);
    if (!rs.ok()) {
      std::fprintf(stderr, "FATAL: bench ruleset: %s\n",
                   rs.error().message.c_str());
      std::exit(1);
    }
    opts.rules = std::move(rs).take();
  }
  std::unique_ptr<core::FarosEngine> engine;
  if (r.attach_engine) {
    engine = std::make_unique<core::FarosEngine>(m.kernel(), opts);
    m.attach_cpu_plugin(engine.get());
    m.add_monitor(engine.get());
  }
  (void)m.boot();
  if (r.copier) {
    CopierInfo copier = setup_copier(m);
    m.run(1000);
    if (engine) taint_copier_buf(m, *engine, copier);
  } else if (r.divspin) {
    setup_divspinner(m, build_divspin_image());
  } else if (r.idlers != 0) {
    setup_idlers(m, r.idlers);
  } else {
    setup_spinner(m);
  }
  m.run(insns / 10);  // warm-up
  RegimeRun out;
  // Median of five fixed-work samples: each sample runs exactly `insns`
  // instructions of the steady-state loop, so one scheduler hiccup or page
  // of cold cache skews a single sample, not the reported figure.
  double samples[5];
  for (double& s : samples) {
    s = bench::time_s([&] { m.run(insns); });
  }
  std::sort(std::begin(samples), std::end(samples));
  out.seconds = samples[2];
  if (r.attach_engine) {
    out.metrics = engine->metrics_snapshot();
    if (const vm::BlockCache* btc = m.kernel().interp().block_cache()) {
      const vm::BlockCacheStats& bs = btc->stats();
      out.metrics.counters[static_cast<u32>(obs::Ctr::kBtTranslate)] +=
          bs.translated;
      out.metrics.counters[static_cast<u32>(obs::Ctr::kBtHit)] += bs.hits;
      out.metrics.counters[static_cast<u32>(obs::Ctr::kBtEvictSmc)] +=
          bs.evict_smc;
      out.metrics.counters[static_cast<u32>(obs::Ctr::kBtEvictCr3)] +=
          bs.evict_cr3;
      out.metrics.counters[static_cast<u32>(obs::Ctr::kBtNotOffered)] +=
          bs.not_offered;
    }
  }
  return out;
}

double rate(u64 hit, u64 miss) {
  u64 total = hit + miss;
  return total ? static_cast<double>(hit) / static_cast<double>(total) : 0;
}

/// Runs the fixed-work regime sweep; emits JSONL when FAROS_BENCH_JSON is
/// set and, when FAROS_BENCH_GATE is set, enforces the block-cache overhead
/// ceiling (clean and image-tainted ≤ 1.6× cache-on bare — CI's tripwire
/// for regressions in the elision fast path). Returns false on gate failure.
bool emit_json_summary() {
  const bool gate = std::getenv("FAROS_BENCH_GATE") != nullptr;
  if (!std::getenv("FAROS_BENCH_JSON") && !gate) return true;
  constexpr u64 kInsns = 2000000;
  // The _noobs pair isolates the observability tax: identical workloads
  // with collect_metrics off, so every counter handle is null.
  const Regime regimes[] = {
      {"interp_bare", false, false, false},
      {"interp_faros_clean", true, true, false},
      {"interp_faros_image_tainted", true, false, false},
      {"interp_faros_tainted_copy", true, false, true},
      {"interp_faros_clean_noobs", true, true, false, /*metrics=*/false},
      {"interp_faros_image_tainted_noobs", true, false, false,
       /*metrics=*/false},
      // Rule-dispatch overhead: same workloads with all five triggers
      // bound. image_tainted_rules pays one tainted-fetch dispatch per
      // instruction; tainted_copy_rules adds a tainted-load + tainted-store
      // dispatch per streamed access.
      {"interp_faros_image_tainted_rules", true, false, false,
       /*metrics=*/true, kDispatchRules},
      {"interp_faros_tainted_copy_rules", true, false, true,
       /*metrics=*/true, kDispatchRules},
      // Block-translation cache on (the production default): same four core
      // workloads. clean/image_tainted ride the elision fast path; the
      // copier keeps its loads/stores instrumented but skips fetch+decode.
      {"interp_bare_btc", false, false, false, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true},
      {"interp_faros_clean_btc", true, true, false, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true},
      {"interp_faros_image_tainted_btc", true, false, false,
       /*metrics=*/true, /*rules_json=*/nullptr, /*block_cache=*/true},
      {"interp_faros_tainted_copy_btc", true, false, true, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true},
      // A hot block with a constant-divisor kDivu: offered like any
      // register-only block, so it must run uninstrumented.
      {"interp_faros_divspin_btc", true, false, false, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true, /*divspin=*/true},
      // Footprint elision: idle loops entered with a dirty register bank.
      // Every steady-state block (the `movi r0; syscall` tail block and the
      // jmp) must run uninstrumented, also when processes of one image
      // share its code.
      {"interp_faros_idle_dirty_btc", true, false, false, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true, /*divspin=*/false,
       /*idlers=*/1},
      {"interp_faros_idle3_btc", true, false, false, /*metrics=*/true,
       /*rules_json=*/nullptr, /*block_cache=*/true, /*divspin=*/false,
       /*idlers=*/3},
  };
  std::map<std::string, double> ns_by_case;
  std::map<std::string, double> elided_share_by_case;
  for (const Regime& r : regimes) {
    RegimeRun run = run_regime(r, kInsns);
    const double s = run.seconds;
    ns_by_case[r.name] = s / static_cast<double>(kInsns) * 1e9;
    if (run.metrics.collected) {
      const u64 retired = run.metrics[obs::Ctr::kInsnsRetired];
      const u64 elided = run.metrics[obs::Ctr::kBtElidedInsns];
      elided_share_by_case[r.name] =
          retired ? static_cast<double>(elided) / static_cast<double>(retired)
                  : 0;
    }
    JsonWriter rec;
    rec.field("case", r.name)
        .field("insns", kInsns)
        .field("ns_per_insn", s / static_cast<double>(kInsns) * 1e9)
        .field("minsn_per_s", static_cast<double>(kInsns) / s / 1e6);
    if (run.metrics.collected) {
      const obs::MetricSnapshot& m = run.metrics;
      using obs::Ctr;
      rec.field("fetch_cache_hit_rate",
                rate(m[Ctr::kFetchCacheHit], m[Ctr::kFetchCacheMiss]))
          .field("shadow_frame_cache_hit_rate",
                 rate(m[Ctr::kShadowFrameCacheHit],
                      m[Ctr::kShadowFrameCacheMiss]))
          .field("merge_memo_hit_rate",
                 rate(m[Ctr::kMergeMemoHit], m[Ctr::kMergeMemoMiss]))
          .field("append_memo_hit_rate",
                 rate(m[Ctr::kAppendMemoHit], m[Ctr::kAppendMemoMiss]));
      obs::append_counter_fields(rec, m);
    }
    bench::json_record("micro_dift", rec);
  }

  if (!gate) return true;
  const double bare = ns_by_case["interp_bare_btc"];
  const double clean_x = ns_by_case["interp_faros_clean_btc"] / bare;
  const double image_x = ns_by_case["interp_faros_image_tainted_btc"] / bare;
  constexpr double kCeiling = 1.6;
  std::printf(
      "block-cache gate: clean %.2fx, image-tainted %.2fx of bare "
      "(ceiling %.1fx)\n",
      clean_x, image_x, kCeiling);
  if (clean_x > kCeiling || image_x > kCeiling) {
    std::fprintf(stderr,
                 "FAIL: block-cache overhead ceiling exceeded "
                 "(clean %.2fx, image-tainted %.2fx > %.1fx)\n",
                 clean_x, image_x, kCeiling);
    return false;
  }
  // Elision coverage gate (counters, not timing): idle loops with a dirty
  // bank, alone and three to an image, and the constant-divisor loop run
  // elided.
  constexpr double kElidedShareFloor = 0.99;
  bool elided_ok = true;
  for (const char* name : {"interp_faros_idle_dirty_btc",
                           "interp_faros_idle3_btc",
                           "interp_faros_divspin_btc"}) {
    const double share = elided_share_by_case[name];
    std::printf("elide gate: %s elided share %.4f (floor %.2f)\n", name,
                share, kElidedShareFloor);
    if (share < kElidedShareFloor) {
      std::fprintf(stderr, "FAIL: %s elided share %.4f < %.2f\n", name,
                   share, kElidedShareFloor);
      elided_ok = false;
    }
  }
  return elided_ok;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return emit_json_summary() ? 0 : 1;
}
