// Farm scaling bench: triages the full Table IV corpus (90 non-injecting
// malware samples + 14 benign applications). The cold arm runs the jobs
// serially, each as its own attacks::Analysis on a cold-booted machine (no
// snapshot, no farm). Then the farm, which runs every job on a
// copy-on-write clone of a guest booted once, sweeps worker counts
// 1 -> hardware_concurrency.
//
// Shapes to check:
//  * the farm at one worker beats the cold arm by > 2x jobs/s. The target
//    dates from snapshot captures of ~100 ms; since cold RAM became a
//    copy-on-write clone of the all-zero image, cold boots are cheap and
//    this reads about 1.0-1.5x, reported as a THROUGHPUT FAILURE;
//  * every job's verdict fields (flagged, findings, instructions) agree
//    at every sweep point and with the cold arm.
//
// With FAROS_BENCH_JSON=<path> each sweep point also lands as a JSONL
// record, so the before/after trajectory is machine-readable.
#include <algorithm>
#include <thread>
#include <vector>

#include "attacks/corpus.h"
#include "bench_util.h"
#include "farm/farm.h"

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
  bench::heading("Farm throughput — Table IV corpus, cold boot vs snapshot/COW");

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
  std::printf("snapshot speedup vs cold boot (1 worker): %.1fx (target > 2x)\n",
              speedup);
  bool ok = speedup > 2.0;
  std::printf("result: %s\n",
              ok ? "SNAPSHOT THROUGHPUT REPRODUCED" : "THROUGHPUT FAILURE");
  return ok ? 0 : 1;
}
