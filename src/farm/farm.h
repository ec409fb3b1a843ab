// Farm — the concurrent corpus-triage service. Fans a catalogue of analysis
// jobs (src/attacks/corpus.h) across N worker threads; each job is one
// private attacks::Analysis (machine + engine) on a copy-on-write clone of
// a guest booted once per farm, so workers share no mutable state and
// sharding is safe (scenarios are deterministic, and each job's one
// analyzed live run is job-private).
//
// Determinism argument: a job's execution depends only on its JobSpec (the
// scenario factory, budget and engine options) — never on which worker ran
// it or what ran beside it. The per-job watchdog (os::RunGovernor) can only
// *abort* a run, not perturb it, and aborted runs are reported as kTimeout
// with their partial state discarded from the verdict. Results are
// delivered to the callback in ascending job-id order via a reorder
// buffer, so the JSONL stream is byte-identical for any worker count.
//
// Failure taxonomy per job: ok (clean or flagged), error (harness failure:
// no factory, snapshot capture, boot/setup, or an .fpg write; never
// retried, since a re-run of a deterministic job fails the same way),
// timeout (wall-clock deadline), cancelled (farm shut down first). A worker
// never dies with its job: every failure is caught, boxed into the
// JobResult, and the worker moves on — one pathological sample cannot
// poison the pool.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "farm/job.h"
#include "farm/queue.h"

namespace faros::os {
struct Snapshot;  // os/snapshot.h
}

namespace faros::farm {

/// One named ruleset for multi-policy fan-out
/// (FarmConfig::extra_policies; faros_triage --policies a.json,b.json).
struct PolicySet {
  std::string name;  // label carried into JobResult::PolicyRun
  std::vector<core::RuleSpec> rules;
};

struct FarmConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency() (min 1).
  u32 workers = 0;
  /// Default per-job wall-clock deadline (the job's one run); 0 = none.
  u64 timeout_ms = 60'000;
  /// When non-empty: write one provenance-graph artifact per completed job
  /// to `<graph_out>/<job name>.fpg` (src/graph binary format; job names
  /// are sanitized to filesystem-safe characters). The graph is built from
  /// the live run's engine + kernel at its end and is a pure function of
  /// the JobSpec — byte-identical for any worker count. The directory is
  /// created on demand.
  std::string graph_out;
  /// Extra rule sets the job's one engine evaluates beside the primary
  /// (core::FarosEngine::add_rule_set): no further machine or pass.
  /// Results land in JobResult::policy_runs in this order.
  std::vector<PolicySet> extra_policies;
  /// Engine options applied to every job's one engine.
  core::Options engine_opts;
  /// Machine config for each job's live run. The farm boots it once,
  /// freezes it (os/snapshot.h) on the first job, and runs every job as a
  /// copy-on-write clone of that image, shared read-only across workers.
  /// Verdicts equal a cold boot's (test_live_replay_oracle pins this).
  os::MachineConfig machine;
  /// Called once per job in ascending job-id order (never concurrently).
  std::function<void(const JobResult&)> on_result;
};

/// Farm-level metrics over one run(); timing fields are wall-clock.
struct FarmMetrics {
  u32 jobs = 0;
  u32 ok = 0;
  u32 flagged = 0;
  u32 clean = 0;
  u32 errors = 0;
  u32 timeouts = 0;
  u32 cancelled = 0;
  u64 instructions = 0;  // live-run instructions, all jobs
  double wall_s = 0;
  double jobs_per_s = 0;
  double insns_per_s = 0;
  double p50_ms = 0;  // per-job latency percentiles (completed jobs)
  double p95_ms = 0;
  double record_s = 0;  // summed per-job analyzed live-run wall time
};

struct TriageReport {
  std::vector<JobResult> results;  // ascending job id
  FarmMetrics metrics;
};

class Farm {
 public:
  explicit Farm(FarmConfig cfg = {});

  /// Runs every job to completion (or cancellation) and returns the
  /// aggregated report. Blocking; call request_cancel() from another
  /// thread to shut down early — the queue drains, in-flight jobs abort,
  /// and every job still gets a (cancelled) result. One run() per Farm
  /// instance (the queue is closed at the end of the run).
  TriageReport run(std::vector<JobSpec> jobs);

  /// Thread-safe; idempotent.
  void request_cancel();

  /// Runs a single job inline (no pool): the job's attacks::Analysis plus
  /// the farm's watchdog, JobResult and graph export.
  JobResult run_job(const JobSpec& spec) const;

  const FarmConfig& config() const { return cfg_; }

 private:
  void worker_main();
  /// The job itself; run_job adds its wall time.
  JobResult run_once(const JobSpec& spec) const;
  /// Machine config for this run: cfg_.machine plus the shared booted-
  /// guest snapshot (captured once, under snap_once_).
  Result<os::MachineConfig> machine_config() const;
  void deliver(JobResult r);

  FarmConfig cfg_;
  JobQueue queue_;
  std::atomic<bool> cancel_{false};

  // Lazily captured snapshot (shared read-only by every worker; mutable
  // because run_job is const and the first job triggers the capture).
  mutable std::once_flag snap_once_;
  mutable std::shared_ptr<const os::Snapshot> snap_;
  mutable std::string snap_error_;

  std::mutex emit_mu_;
  std::map<u32, JobResult> reorder_;  // completed, waiting for in-order emit
  u32 next_emit_ = 0;
  std::vector<JobResult> results_;
};

}  // namespace faros::farm
