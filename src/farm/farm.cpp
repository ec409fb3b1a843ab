#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "graph/graph.h"
#include "os/snapshot.h"

namespace faros::farm {

namespace {

using Clock = std::chrono::steady_clock;

/// Per-job watchdog: aborts the run on farm cancellation or when the
/// wall-clock deadline passes. Polled between scheduling rounds (at most
/// one quantum of instructions each). Cancellation is seen on the next
/// poll; the clock is read on the first poll and then on every 64th, since
/// idle guests yield after a few instructions and a clock read per round
/// would cost more than the round. A runaway guest is therefore stopped at
/// most 63 rounds (63 x quantum instructions) after its deadline.
///
/// The *first* reason to fire is latched: the job's terminal status must be
/// decided by what actually stopped the run, not by re-reading cancel_
/// after the fact (a deadline abort racing a request_cancel() would
/// otherwise misreport kTimeout as kCancelled).
class Watchdog final : public os::RunGovernor {
 public:
  enum class Reason { kNone, kCancel, kDeadline };

  Watchdog(const std::atomic<bool>& cancel,
           std::optional<Clock::time_point> deadline)
      : cancel_(cancel), deadline_(deadline) {}

  bool should_stop() override {
    if (reason_ != Reason::kNone) return true;
    if (cancel_.load(std::memory_order_relaxed)) {
      reason_ = Reason::kCancel;
      return true;
    }
    if (deadline_ && (polls_++ % kClockEvery) == 0 &&
        Clock::now() >= *deadline_) {
      reason_ = Reason::kDeadline;
      return true;
    }
    return false;
  }

  bool cancelled() const { return reason_ == Reason::kCancel; }

 private:
  static constexpr u32 kClockEvery = 64;

  const std::atomic<bool>& cancel_;
  std::optional<Clock::time_point> deadline_;
  u32 polls_ = 0;
  Reason reason_ = Reason::kNone;
};

/// The deadline `timeout_ms` from now; none for 0 and for a timeout the
/// clock cannot represent (adding it would overflow into the past).
std::optional<Clock::time_point> deadline_after(u64 timeout_ms) {
  if (timeout_ms == 0) return std::nullopt;
  const Clock::time_point now = Clock::now();
  const auto room = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::time_point::max() - now);
  if (timeout_ms >= static_cast<u64>(room.count())) return std::nullopt;
  return now + std::chrono::milliseconds(timeout_ms);
}

/// Filesystem-safe artifact name: job names can carry '/' and other
/// separators; anything outside [A-Za-z0-9._-] becomes '_'.
std::string sanitize_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return out;
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

/// Verdict summary of one of the engine's policy sets.
JobResult::PolicyRun policy_run_of(const std::string& name,
                                   const core::FarosEngine& e, u32 set) {
  JobResult::PolicyRun pr;
  pr.name = name;
  pr.flagged = e.flagged(set);
  pr.findings = static_cast<u32>(e.findings(set).size());
  for (const auto& f : e.findings(set)) {
    if (f.whitelisted) ++pr.suppressed;
    pr.policies.push_back(f.policy);
  }
  std::sort(pr.policies.begin(), pr.policies.end());
  pr.policies.erase(std::unique(pr.policies.begin(), pr.policies.end()),
                    pr.policies.end());
  return pr;
}

}  // namespace

Farm::Farm(FarmConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) {
    cfg_.workers = std::max(1u, std::thread::hardware_concurrency());
  }
}

void Farm::request_cancel() {
  cancel_.store(true, std::memory_order_relaxed);
  queue_.cancel();
}

Result<os::MachineConfig> Farm::machine_config() const {
  os::MachineConfig mcfg = cfg_.machine;
  std::call_once(snap_once_, [this] {
    auto s = os::capture_snapshot(cfg_.machine.kernel);
    if (s.ok()) {
      snap_ = s.value();
    } else {
      snap_error_ = s.error().message;
    }
  });
  if (!snap_) return Err<os::MachineConfig>(snap_error_);
  mcfg.kernel.snapshot = snap_;
  return mcfg;
}

JobResult Farm::run_once(const JobSpec& spec, u32 attempt) const {
  JobResult r;
  r.id = spec.id;
  r.name = spec.name;
  r.category = spec.category;
  r.expect_flagged = spec.expect_flagged;

  auto fail = [&](std::string msg) {
    r.status = JobStatus::kError;
    r.error = std::move(msg);
    return r;
  };

  // Deterministic failure injection (tests only): attempts below the
  // threshold fail before any work, exercising the retry path identically
  // on every worker.
  if (attempt < spec.inject_failures) {
    return fail("injected failure (attempt " + std::to_string(attempt) + ")");
  }

  std::unique_ptr<attacks::Scenario> sc = spec.make ? spec.make() : nullptr;
  if (!sc) return fail("job has no scenario factory");

  auto mc = machine_config();
  if (!mc.ok()) return fail("snapshot: " + mc.error().message);

  u64 budget = spec.budget_override ? spec.budget_override : sc->budget();
  Watchdog dog(cancel_, deadline_after(spec.timeout_ms ? spec.timeout_ms
                                                       : cfg_.timeout_ms));

  // --- live run under the FAROS engine, every policy set on one pass ---
  attacks::Analysis a(cfg_.engine_opts, mc.value());
  for (const PolicySet& ps : cfg_.extra_policies) {
    a.engine().add_rule_set(ps.rules);
  }
  if (auto s = a.start(*sc); !s.ok()) return fail(s.error().message);
  os::RunStats stats = a.run(budget, &dog);
  if (stats.aborted) {
    // The watchdog latched what fired first; a cancel arriving after a
    // deadline abort must not relabel the timeout.
    r.status = dog.cancelled() ? JobStatus::kCancelled : JobStatus::kTimeout;
    return r;
  }

  const core::FarosEngine& engine = a.engine();
  for (u32 i = 0; i < cfg_.extra_policies.size(); ++i) {
    r.policy_runs.push_back(
        policy_run_of(cfg_.extra_policies[i].name, engine, i + 1));
  }

  r.status = JobStatus::kOk;
  r.metrics = a.metrics();
  r.instructions = stats.instructions;
  r.all_exited = stats.all_exited;
  r.budget_exhausted = !stats.all_exited && !stats.deadlocked &&
                       stats.instructions >= budget;
  JobResult::PolicyRun primary = policy_run_of("", engine, 0);
  r.flagged = primary.flagged;
  r.findings = primary.findings;
  r.suppressed = primary.suppressed;
  r.policies = std::move(primary.policies);
  r.prov_lists = engine.store().size();
  r.tainted_bytes = engine.shadow().tainted_bytes();
  const core::RuleEngine& re = engine.rule_engine();
  r.rules.reserve(re.rule_count());
  for (u32 i = 0; i < re.rule_count(); ++i) {
    r.rules.push_back({re.rule_id(i), re.rule_stats(i).evals,
                       re.rule_stats(i).hits});
  }

  // --- provenance graph export (engine + analyzed kernel still alive) ---
  if (!cfg_.graph_out.empty()) {
    graph::ProvGraph pg = graph::build_graph(engine, a.machine().kernel());
    Bytes blob = graph::serialize(pg);
    std::error_code ec;
    std::filesystem::create_directories(cfg_.graph_out, ec);
    std::string path =
        cfg_.graph_out + "/" + sanitize_name(spec.name) + ".fpg";
    FILE* f = std::fopen(path.c_str(), "wb");
    if (!f) return fail("graph write: cannot open " + path);
    size_t written = std::fwrite(blob.data(), 1, blob.size(), f);
    std::fclose(f);
    if (written != blob.size()) return fail("graph write: short write " + path);
    r.graph_built = true;
    r.graph_nodes = static_cast<u32>(pg.nodes.size());
    r.graph_edges = static_cast<u32>(pg.edges.size());
    r.graph_bytes = blob.size();
  }
  return r;
}

JobResult Farm::run_job(const JobSpec& spec) const {
  auto t0 = Clock::now();
  JobResult r = run_once(spec, 0);
  // One bounded retry per configured attempt, only for harness errors —
  // timeouts would time out again and cancellations must stay cancelled.
  //
  // Retry hygiene (audited for --metrics determinism): every attempt is a
  // whole-cloth re-run — run_once builds a fresh JobResult, a fresh
  // machine, a fresh engine and a fresh local timer sink, and the
  // assignment below discards the aborted attempt's object entirely. No
  // counter or timer from a failed attempt can leak into the result the
  // farm emits; only `retries` (set here) and wall_ms (deliberately wall-
  // clock, excluded from deterministic streams) reflect that a retry
  // happened. The injected-retry test pins this across worker counts.
  for (u32 attempt = 0;
       attempt < cfg_.retries && r.status == JobStatus::kError &&
       !cancel_.load(std::memory_order_relaxed);
       ++attempt) {
    r = run_once(spec, attempt + 1);
    r.retries = attempt + 1;
  }
  r.wall_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  return r;
}

void Farm::deliver(JobResult r) {
  std::lock_guard<std::mutex> lock(emit_mu_);
  // Defensive: a duplicate delivery for an already-emitted id would lodge
  // permanently at reorder_.begin() and wedge every later emission; a
  // duplicate for a pending id would silently double-count. Exactly one
  // result per id is the invariant — keep the first, drop the rest.
  if (r.id < next_emit_ || reorder_.count(r.id)) return;
  reorder_.emplace(r.id, std::move(r));
  while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
    JobResult next = std::move(reorder_.begin()->second);
    reorder_.erase(reorder_.begin());
    if (cfg_.on_result) cfg_.on_result(next);
    results_.push_back(std::move(next));
    ++next_emit_;
  }
}

void Farm::worker_main() {
  while (auto spec = queue_.pop()) {
    deliver(run_job(*spec));
  }
}

TriageReport Farm::run(std::vector<JobSpec> jobs) {
  {
    std::lock_guard<std::mutex> lock(emit_mu_);
    reorder_.clear();
    results_.clear();
    next_emit_ = 0;
  }

  auto t0 = Clock::now();
  for (u32 i = 0; i < jobs.size(); ++i) {
    jobs[i].id = i;
    queue_.push(std::move(jobs[i]));
  }
  queue_.close();

  u32 nworkers = std::min<u32>(cfg_.workers,
                               std::max<size_t>(jobs.size(), 1));
  std::vector<std::thread> pool;
  pool.reserve(nworkers);
  for (u32 i = 0; i < nworkers; ++i) {
    pool.emplace_back([this] { worker_main(); });
  }
  for (auto& t : pool) t.join();

  // Jobs never dispatched (cancellation) still get a result each.
  for (auto& spec : queue_.drain()) {
    JobResult r;
    r.id = spec.id;
    r.name = spec.name;
    r.category = spec.category;
    r.expect_flagged = spec.expect_flagged;
    r.status = JobStatus::kCancelled;
    deliver(std::move(r));
  }

  TriageReport report;
  {
    std::lock_guard<std::mutex> lock(emit_mu_);
    report.results = std::move(results_);
    results_.clear();
  }

  FarmMetrics& m = report.metrics;
  m.jobs = static_cast<u32>(report.results.size());
  m.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> latencies;
  for (const auto& r : report.results) {
    switch (r.status) {
      case JobStatus::kOk:
        ++m.ok;
        r.flagged ? ++m.flagged : ++m.clean;
        latencies.push_back(r.wall_ms);
        break;
      case JobStatus::kError: ++m.errors; break;
      case JobStatus::kTimeout: ++m.timeouts; break;
      case JobStatus::kCancelled: ++m.cancelled; break;
    }
    m.instructions += r.instructions;
    if (r.metrics.collected) {
      m.record_s +=
          static_cast<double>(
              r.metrics.timer_ns[static_cast<u32>(obs::Tmr::kRecord)]) /
          1e9;
    }
  }
  if (m.wall_s > 0) {
    m.jobs_per_s = m.ok / m.wall_s;
    m.insns_per_s = static_cast<double>(m.instructions) / m.wall_s;
  }
  std::sort(latencies.begin(), latencies.end());
  m.p50_ms = percentile(latencies, 0.50);
  m.p95_ms = percentile(latencies, 0.95);
  return report;
}

}  // namespace faros::farm
