// Farm scaling bench: triages the full Table IV corpus (90 non-injecting
// malware samples + 14 benign applications). The cold arm runs the jobs
// serially, each as its own attacks::Analysis on a cold-booted machine (no
// snapshot, no farm). Then the farm, which runs every job on a
// copy-on-write clone of a guest booted once, sweeps worker counts
// 1 -> hardware_concurrency.
//
// Gates (the exit status):
//  * every job's verdict fields (flagged, findings, instructions) agree
//    at every sweep point and with the cold arm;
//  * a clone boot (Machine + boot() from the snapshot the farm clones) is
//    at least kBootBound times cheaper than a cold boot, on fixed work:
//    the same number of boots per sample, samples of at least 100 ms, in
//    interleaved rounds, gated on the median per-round ratio. That is what
//    the clone buys each job. The jobs/s columns are a report: a Table IV
//    job is mostly interpretation, so the farm's jobs/s speedup over the
//    cold arm stays small, and its sweep points are too short to time.
//
// It also reports (ungated) what os::capture_snapshot costs, in two
// regimes: the median of the process's first kFreshCaptures captures,
// taken before anything else runs (how triagebench samples setup_s: a
// fresh process, whose first touches of the heap fault), and the steady
// state on fixed work, median and quartiles of kBootRounds samples of at
// least 100 ms each.
//
// With FAROS_BENCH_JSON=<path> each sweep point, the boot comparison and
// the capture costs also land as JSONL records, so the trajectory is
// machine-readable.
#include <algorithm>
#include <thread>
#include <vector>

#include "attacks/corpus.h"
#include "bench_util.h"
#include "farm/farm.h"
#include "os/machine.h"
#include "os/snapshot.h"

using namespace faros;

namespace {

std::vector<farm::JobSpec> corpus_jobs() {
  std::vector<farm::JobSpec> jobs;
  for (auto& e : attacks::behavior_corpus()) {
    farm::JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

struct Sweep {
  farm::FarmMetrics metrics;
  std::string verdicts;  // verdict_line() per job, in corpus order
  bool failed = false;
};

std::string verdict_line(const std::string& name, bool flagged,
                         size_t findings, u64 instructions) {
  return name + " " + (flagged ? "flagged" : "clean") + " " +
         std::to_string(findings) + " " + std::to_string(instructions) + "\n";
}

Sweep run_point(u32 workers) {
  Sweep out;
  farm::FarmConfig cfg;
  cfg.workers = workers;
  farm::Farm f(cfg);
  farm::TriageReport rep = f.run(corpus_jobs());
  out.metrics = rep.metrics;
  for (const farm::JobResult& r : rep.results) {
    out.verdicts += verdict_line(r.name, r.flagged, r.findings, r.instructions);
  }
  out.failed = rep.metrics.errors || rep.metrics.timeouts ||
               rep.metrics.cancelled;
  if (out.failed) {
    std::fprintf(stderr,
                 "FATAL: %u errors, %u timeouts, %u cancelled at %u workers\n",
                 rep.metrics.errors, rep.metrics.timeouts,
                 rep.metrics.cancelled, workers);
  }
  return out;
}

/// The cold arm: every job serially through its own attacks::Analysis on a
/// cold-booted machine.
Sweep run_cold() {
  Sweep out;
  farm::FarmMetrics& m = out.metrics;
  std::vector<double> ms;
  for (const farm::JobSpec& spec : corpus_jobs()) {
    ms.push_back(1e3 * bench::time_s([&] {
      auto sc = spec.make();
      attacks::Analysis a;
      if (!a.start(*sc).ok()) {
        out.failed = true;
        return;
      }
      os::RunStats st = a.run(sc->budget());
      const core::FarosEngine& e = a.engine();
      out.verdicts += verdict_line(spec.name, e.flagged(),
                                   e.findings().size(), st.instructions);
      e.flagged() ? ++m.flagged : ++m.clean;
      m.instructions += st.instructions;
    }));
    m.wall_s += ms.back() / 1e3;
  }
  m.jobs = m.ok = static_cast<u32>(ms.size());
  m.jobs_per_s = m.ok / m.wall_s;
  m.insns_per_s = static_cast<double>(m.instructions) / m.wall_s;
  std::sort(ms.begin(), ms.end());
  m.p50_ms = ms[ms.size() / 2];
  m.p95_ms = ms[ms.size() * 95 / 100];
  if (out.failed) std::fprintf(stderr, "FATAL: a cold job failed to start\n");
  return out;
}

/// Cold boot vs clone boot on fixed work: per-round microseconds per boot
/// of each arm, rounds interleaved (cold, then clone), every sample the
/// same number of boots and at least kMinSampleS long.
struct BootRun {
  std::vector<double> cold_us, clone_us, ratio;
  u64 boots_per_sample = 0;
};

constexpr double kMinSampleS = 0.1;
constexpr int kBootRounds = 7;
/// Clone boots must be this many times cheaper than cold ones. On a
/// 4-thread host they cost about 0.45 us against 13 us in Release (about
/// 28x) and 0.8 us against 18 us in RelWithDebInfo (25x); a clone that
/// did a cold boot reads about 1.1x.
constexpr double kBootBound = 1.5;

BootRun run_boots() {
  os::MachineConfig cold_cfg;
  os::MachineConfig clone_cfg;
  auto snap = os::capture_snapshot(clone_cfg.kernel);
  if (!snap.ok()) {
    std::fprintf(stderr, "FATAL: snapshot: %s\n",
                 snap.error().message.c_str());
    std::exit(1);
  }
  clone_cfg.kernel.snapshot = snap.value();
  auto sample = [](const os::MachineConfig& cfg, u64 boots) {
    return bench::time_s([&] {
      for (u64 i = 0; i < boots; ++i) {
        os::Machine m(cfg);
        if (!m.boot().ok()) {
          std::fprintf(stderr, "FATAL: boot failed\n");
          std::exit(1);
        }
      }
    });
  };
  BootRun out;
  (void)sample(cold_cfg, 100);  // warm-up
  (void)sample(clone_cfg, 100);
  // Size the work on the cheaper arm, so both arms' samples are long.
  out.boots_per_sample = 256;
  while (sample(clone_cfg, out.boots_per_sample) < kMinSampleS) {
    out.boots_per_sample *= 2;
  }
  const double n = static_cast<double>(out.boots_per_sample);
  for (int round = 0; round < kBootRounds; ++round) {
    const double cold_s = sample(cold_cfg, out.boots_per_sample);
    const double clone_s = sample(clone_cfg, out.boots_per_sample);
    out.cold_us.push_back(cold_s / n * 1e6);
    out.clone_us.push_back(clone_s / n * 1e6);
    out.ratio.push_back(cold_s / clone_s);
  }
  return out;
}

constexpr int kFreshCaptures = 5;

double capture_s(const os::KernelConfig& cfg) {
  return bench::time_s([&] {
    if (!os::capture_snapshot(cfg).ok()) {
      std::fprintf(stderr, "FATAL: snapshot capture failed\n");
      std::exit(1);
    }
  });
}

/// Microseconds of each of the process's first kFreshCaptures captures.
std::vector<double> fresh_captures_us() {
  const os::KernelConfig cfg{};
  std::vector<double> us;
  for (int i = 0; i < kFreshCaptures; ++i) us.push_back(capture_s(cfg) * 1e6);
  return us;
}

/// Steady-state capture: per-capture microseconds of kBootRounds samples,
/// each the same number of captures and at least kMinSampleS long; sorted.
struct CaptureRun {
  std::vector<double> us;
  u64 captures_per_sample = 0;
};

CaptureRun run_captures() {
  const os::KernelConfig cfg{};
  auto sample = [&](u64 n) {
    return bench::time_s([&] {
      for (u64 i = 0; i < n; ++i) (void)capture_s(cfg);
    });
  };
  CaptureRun out;
  out.captures_per_sample = 64;
  while (sample(out.captures_per_sample) < kMinSampleS) {
    out.captures_per_sample *= 2;
  }
  const double n = static_cast<double>(out.captures_per_sample);
  for (int round = 0; round < kBootRounds; ++round) {
    out.us.push_back(sample(out.captures_per_sample) / n * 1e6);
  }
  std::sort(out.us.begin(), out.us.end());
  return out;
}

void print_row(const char* label, u32 w, const farm::FarmMetrics& m) {
  std::printf("%-10s %6u %10.2f %10.1f %13.1fM %10.1f %10.1f %9u\n", label, w,
              m.wall_s, m.jobs_per_s, m.insns_per_s / 1e6, m.p50_ms, m.p95_ms,
              m.flagged);
}

void emit_record(const char* mode, u32 w, const farm::FarmMetrics& m,
                 double cold_jps) {
  JsonWriter rec;
  rec.field("mode", mode)
      .field("workers", w)
      .field("jobs", m.jobs)
      .field("wall_s", m.wall_s)
      .field("jobs_per_s", m.jobs_per_s)
      .field("insns_per_s", m.insns_per_s)
      .field("p50_ms", m.p50_ms)
      .field("p95_ms", m.p95_ms)
      .field("flagged", m.flagged)
      .field("speedup_vs_cold", cold_jps ? m.jobs_per_s / cold_jps : 1.0);
  bench::json_record("farm_throughput", rec);
}

}  // namespace

int main() {
  // First, while the process is fresh.
  const std::vector<double> fresh_us = fresh_captures_us();
  bench::heading(
      "Farm throughput — Table IV corpus, cold boot vs snapshot/COW");

  u32 hw = std::max(1u, std::thread::hardware_concurrency());
  // Sweep powers of two up to hardware_concurrency, but always include
  // 1/2/4 so the cross-worker determinism check is meaningful even on
  // small hosts (oversubscribed pools must still agree byte-for-byte).
  u32 top = std::max(hw, 4u);
  std::vector<u32> sweep;
  for (u32 w = 1; w < top; w *= 2) sweep.push_back(w);
  sweep.push_back(top);

  std::printf("hardware_concurrency: %u | corpus: %zu jobs\n\n", hw,
              corpus_jobs().size());
  std::printf("%-10s %6s %10s %10s %14s %10s %10s %9s\n", "mode", "workers",
              "wall (s)", "jobs/s", "insns/s", "p50 (ms)", "p95 (ms)",
              "flagged");

  // Before: every job cold-boots its own guest.
  Sweep cold = run_cold();
  if (cold.failed) return 1;
  print_row("cold", 1, cold.metrics);
  const double cold_jps = cold.metrics.jobs_per_s;
  emit_record("cold", 1, cold.metrics, cold_jps);

  // After: the farm boots once and clones per job.
  bool deterministic = true;
  double snap_w1_jps = 0;
  for (u32 w : sweep) {
    Sweep s = run_point(w);
    if (s.failed) return 1;
    print_row("snapshot", w, s.metrics);
    if (w == 1) snap_w1_jps = s.metrics.jobs_per_s;
    if (s.verdicts != cold.verdicts) deterministic = false;
    emit_record("snapshot", w, s.metrics, cold_jps);
  }

  std::printf("\nverdicts (every sweep point vs cold baseline): %s\n",
              deterministic ? "identical per job" : "DIVERGED");
  if (!deterministic) {
    std::printf("result: REPRODUCTION FAILURE\n");
    return 1;
  }

  const double speedup = cold_jps ? snap_w1_jps / cold_jps : 0;
  std::printf("snapshot jobs/s vs cold arm (1 worker): %.1fx (report)\n",
              speedup);

  const BootRun boots = run_boots();
  const double ratio = bench::median_of(boots.ratio);
  const auto [lo, hi] =
      std::minmax_element(boots.ratio.begin(), boots.ratio.end());
  std::printf("boot: cold %.1f us, clone %.1f us per boot (medians of %d "
              "interleaved rounds of %llu boots)\n",
              bench::median_of(boots.cold_us), bench::median_of(boots.clone_us),
              kBootRounds,
              static_cast<unsigned long long>(boots.boots_per_sample));
  std::printf("clone boot gate: cold/clone %.2fx (rounds %.2f-%.2f), "
              "bound >= %.1fx\n",
              ratio, *lo, *hi, kBootBound);
  JsonWriter rec;
  rec.field("mode", "boot")
      .field("cold_us", bench::median_of(boots.cold_us))
      .field("clone_us", bench::median_of(boots.clone_us))
      .field("cold_over_clone", ratio)
      .field("rounds", static_cast<u64>(kBootRounds))
      .field("boots_per_sample", boots.boots_per_sample);
  bench::json_record("farm_throughput", rec);

  const CaptureRun captures = run_captures();
  const double steady_q1 = captures.us[captures.us.size() / 4];
  const double steady_q3 = captures.us[captures.us.size() * 3 / 4];
  std::printf("capture: first %d in a fresh process %.1f us (median); "
              "steady state %.1f us (IQR %.1f-%.1f, %zu samples of %llu)\n",
              kFreshCaptures, bench::median_of(fresh_us),
              bench::median_of(captures.us), steady_q1, steady_q3,
              captures.us.size(),
              static_cast<unsigned long long>(captures.captures_per_sample));
  JsonWriter cap;
  cap.field("mode", "capture")
      .field("fresh_median_us", bench::median_of(fresh_us))
      .field("fresh_captures", static_cast<u64>(kFreshCaptures))
      .field("steady_median_us", bench::median_of(captures.us))
      .field("steady_q1_us", steady_q1)
      .field("steady_q3_us", steady_q3)
      .field("samples", static_cast<u64>(captures.us.size()))
      .field("captures_per_sample", captures.captures_per_sample);
  bench::json_record("farm_throughput", cap);

  const bool ok = ratio >= kBootBound;
  std::printf("result: %s\n",
              ok ? "CLONE BOOT REPRODUCED" : "CLONE BOOT FAILURE");
  return ok ? 0 : 1;
}
