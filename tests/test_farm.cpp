// The corpus-triage farm: queue semantics, determinism across worker
// counts, watchdog timeouts, error isolation/retry, ordered streaming, and
// clean shutdown mid-queue. These tests are the ones the TSan CI job runs
// — they deliberately exercise the concurrent paths hard.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "attacks/corpus.h"
#include "attacks/programs.h"
#include "core/rules.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "farm/triage_cli.h"
#include "os/machine.h"

namespace faros {
namespace {

using farm::Farm;
using farm::FarmConfig;
using farm::JobResult;
using farm::JobSpec;
using farm::JobStatus;

// A minimal fast job: one helper process that prints and exits (~hundreds
// of instructions), so shutdown/ordering tests can queue many of them.
class TinyScenario final : public attacks::Scenario {
 public:
  explicit TinyScenario(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  Result<void> setup(os::Machine& m) override {
    auto img = attacks::build_helper_program();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create("C:/tiny.exe", img.value().serialize());
    auto pid = m.kernel().spawn("C:/tiny.exe");
    if (!pid.ok()) return Err<void>(pid.error().message);
    return Ok();
  }
  u64 budget() const override { return 50'000; }

 private:
  std::string name_;
};

// Never exits: an idle process spins until the budget or the watchdog.
class SpinScenario final : public attacks::Scenario {
 public:
  std::string name() const override { return "spin_forever"; }
  Result<void> setup(os::Machine& m) override {
    auto img = attacks::build_idle_program("spin.exe");
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create("C:/spin.exe", img.value().serialize());
    auto pid = m.kernel().spawn("C:/spin.exe");
    if (!pid.ok()) return Err<void>(pid.error().message);
    return Ok();
  }
};

// Setup always fails: exercises the kError path and the bounded retry.
class BrokenScenario final : public attacks::Scenario {
 public:
  std::string name() const override { return "broken"; }
  Result<void> setup(os::Machine&) override {
    return Err<void>("missing sample image");
  }
};

JobSpec tiny_job(const std::string& name) {
  JobSpec spec;
  spec.name = name;
  spec.category = "test";
  spec.make = [name] { return std::make_unique<TinyScenario>(name); };
  return spec;
}

std::vector<JobSpec> corpus_jobs(const std::vector<attacks::CorpusEntry>& es) {
  std::vector<JobSpec> jobs;
  for (const auto& e : es) {
    JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

TEST(JobQueue, PopBlocksUntilPushAndCloseDrains) {
  farm::JobQueue q;
  q.push(tiny_job("a"));
  q.push(tiny_job("b"));
  q.close();
  auto a = q.pop();
  auto b = q.pop();
  ASSERT_TRUE(a && b);
  EXPECT_EQ(a->name, "a");
  EXPECT_EQ(b->name, "b");
  EXPECT_FALSE(q.pop().has_value());  // closed + empty: no block
}

TEST(JobQueue, CancelWakesBlockedPopperAndPreservesJobs) {
  farm::JobQueue q;
  std::atomic<bool> woke{false};
  std::thread popper([&] {
    EXPECT_FALSE(q.pop().has_value());
    woke = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.cancel();
  popper.join();
  EXPECT_TRUE(woke);
  // A push after cancel is never dispatched, but stays for drain().
  q.push(tiny_job("left-behind"));
  auto left = q.drain();
  ASSERT_EQ(left.size(), 1u);
  EXPECT_EQ(left[0].name, "left-behind");
}

TEST(Farm, InjectionCorpusAllFlaggedAndScored) {
  Farm f(FarmConfig{});
  auto report = f.run(corpus_jobs(attacks::injection_corpus()));
  ASSERT_EQ(report.results.size(), 11u);
  for (const auto& r : report.results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name << ": " << r.error;
    EXPECT_TRUE(r.flagged) << r.name;
    EXPECT_STREQ(r.verdict(), "TP") << r.name;
    EXPECT_FALSE(r.policies.empty()) << r.name;
  }
  EXPECT_EQ(report.metrics.flagged, 11u);
  EXPECT_EQ(report.metrics.errors, 0u);
  EXPECT_LE(report.metrics.p50_ms, report.metrics.p95_ms);
}

TEST(Farm, DeterministicAcrossWorkerCounts) {
  // The whole point of the reorder buffer: the serialised result stream is
  // byte-identical no matter how jobs interleave across workers.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  for (auto& e : attacks::jit_corpus()) {
    JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
    if (jobs.size() >= 15) break;  // keep the test fast; mix of categories
  }

  FarmConfig serial_cfg;
  serial_cfg.workers = 1;
  Farm serial(serial_cfg);
  std::string serial_out = farm::results_jsonl(serial.run(jobs));

  FarmConfig wide_cfg;
  wide_cfg.workers = 8;
  Farm wide(wide_cfg);
  std::string wide_out = farm::results_jsonl(wide.run(jobs));

  EXPECT_EQ(serial_out, wide_out);
  EXPECT_FALSE(serial_out.empty());
}

TEST(Farm, MetricsJsonlDeterministicAcrossWorkerCounts) {
  // Same contract as the results stream: per-job counters are a pure
  // function of the spec, so the metrics stream is byte-identical no
  // matter how jobs spread across workers.
  auto jobs = corpus_jobs(attacks::injection_corpus());

  FarmConfig serial_cfg;
  serial_cfg.workers = 1;
  Farm serial(serial_cfg);
  std::string serial_out = farm::metrics_jsonl(serial.run(jobs));

  FarmConfig wide_cfg;
  wide_cfg.workers = 8;
  Farm wide(wide_cfg);
  std::string wide_out = farm::metrics_jsonl(wide.run(jobs));

  EXPECT_EQ(serial_out, wide_out);
  ASSERT_FALSE(serial_out.empty());
  EXPECT_NE(serial_out.find("\"type\":\"job_metrics\""), std::string::npos);
  EXPECT_NE(serial_out.find("\"type\":\"metrics_summary\""),
            std::string::npos);
  EXPECT_NE(serial_out.find("\"insns_retired\":"), std::string::npos);
  // Wall-clock timers must never leak into the deterministic stream.
  EXPECT_EQ(serial_out.find("record_ns"), std::string::npos);
  EXPECT_EQ(serial_out.find("replay_ns"), std::string::npos);
}

TEST(Farm, MetricsOffYieldsEmptyMetricsStream) {
  FarmConfig cfg;
  cfg.engine_opts.collect_metrics = false;
  Farm f(cfg);
  auto report = f.run({tiny_job("quiet")});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_FALSE(report.results[0].metrics.collected);
  std::string out = farm::metrics_jsonl(report);
  EXPECT_EQ(out.find("\"type\":\"job_metrics\""), std::string::npos);
  EXPECT_NE(out.find("\"jobs_collected\":0"), std::string::npos);
}

TEST(Machine, CompletedWorkloadBeatsGovernorStop) {
  // The watchdog/completion race, at the machine layer: a governor firing
  // on a workload that has already finished must not turn the terminal
  // state into an abort (the farm would misreport kOk as kTimeout).
  struct AlwaysStop final : os::RunGovernor {
    bool should_stop() override { return true; }
  };
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  auto img = attacks::build_helper_program();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/tiny.exe", img.value().serialize());
  ASSERT_TRUE(m.kernel().spawn("C:/tiny.exe").ok());

  // While work is pending the governor aborts before any quantum runs.
  AlwaysStop gov;
  os::RunStats aborted = m.run(50'000, &gov);
  EXPECT_TRUE(aborted.aborted);
  EXPECT_EQ(aborted.instructions, 0u);

  os::RunStats done = m.run(50'000);
  ASSERT_TRUE(done.all_exited);

  // Once everything has exited, the same governor sees completion win.
  os::RunStats after = m.run(50'000, &gov);
  EXPECT_TRUE(after.all_exited);
  EXPECT_FALSE(after.aborted);
}

TEST(Farm, WatchdogCompletionRaceYieldsExactlyOneResult) {
  // Deadlines tuned to land right around job completion: whichever side
  // wins, every job must yield exactly one result, in id order, with a
  // coherent status. (The TSan CI job runs this under race detection.)
  for (int round = 0; round < 3; ++round) {
    FarmConfig cfg;
    cfg.workers = 4;
    std::atomic<u32> delivered{0};
    cfg.on_result = [&](const JobResult&) { ++delivered; };
    Farm f(cfg);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 48; ++i) {
      JobSpec spec = tiny_job("race" + std::to_string(i));
      spec.timeout_ms = 1 + (i % 3);
      jobs.push_back(std::move(spec));
    }
    auto report = f.run(jobs);
    ASSERT_EQ(report.results.size(), 48u);
    EXPECT_EQ(delivered.load(), 48u);
    for (u32 i = 0; i < report.results.size(); ++i) {
      const JobResult& r = report.results[i];
      EXPECT_EQ(r.id, i);
      EXPECT_TRUE(r.status == JobStatus::kOk ||
                  r.status == JobStatus::kTimeout)
          << r.name << " -> " << farm::job_status_name(r.status);
      // A run reported ok genuinely completed; timeouts carry no verdict.
      if (r.status == JobStatus::kOk) {
        EXPECT_TRUE(r.all_exited) << r.name;
      } else {
        EXPECT_STREQ(r.verdict(), "-") << r.name;
      }
    }
  }
}

TEST(Farm, RunJobMatchesSerialAnalyze) {
  // The farm's job runner must agree with the single-shot harness.
  attacks::HollowingScenario hollow;
  auto direct = attacks::analyze(hollow);
  ASSERT_TRUE(direct.ok());

  Farm f(FarmConfig{});
  JobSpec spec;
  spec.name = "process_hollowing";
  spec.make = [] { return std::make_unique<attacks::HollowingScenario>(); };
  JobResult r = f.run_job(spec);
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  EXPECT_EQ(r.flagged, direct.value().flagged);
  EXPECT_EQ(r.findings, direct.value().findings.size());
  EXPECT_EQ(r.prov_lists, direct.value().prov_lists);
  EXPECT_EQ(r.tainted_bytes, direct.value().tainted_bytes);
}

TEST(Farm, SchedulerAndTlbCountersComeFromTheLiveRun) {
  // sched_rounds is the analyzed live run's RunStats::scheduling_rounds.
  // The victim idles in a yield loop for most of those rounds without a
  // page-table write in between, so TLB misses stay far below rounds.
  attacks::HollowingScenario hollow;
  auto direct = attacks::analyze(hollow);
  ASSERT_TRUE(direct.ok());

  JobSpec spec;
  spec.name = "process_hollowing";
  spec.make = [] { return std::make_unique<attacks::HollowingScenario>(); };
  JobResult r = Farm(FarmConfig{}).run_job(spec);
  ASSERT_EQ(r.status, JobStatus::kOk) << r.error;
  ASSERT_TRUE(r.metrics.collected);
  const u64 rounds = r.metrics[obs::Ctr::kSchedRounds];
  EXPECT_EQ(rounds, direct.value().recorded.stats.scheduling_rounds);
  EXPECT_GT(rounds, 1000u);
  EXPECT_GT(r.metrics[obs::Ctr::kTlbMiss], 0u);
  EXPECT_LT(r.metrics[obs::Ctr::kTlbMiss] * 100, rounds);
}

TEST(Farm, TimeoutReportedWithoutPoisoningPool) {
  FarmConfig cfg;
  cfg.workers = 2;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  JobSpec runaway;
  runaway.name = "runaway";
  runaway.category = "test";
  runaway.make = [] { return std::make_unique<SpinScenario>(); };
  runaway.budget_override = 2'000'000'000;  // would run for minutes
  runaway.timeout_ms = 100;
  jobs.push_back(std::move(runaway));
  for (int i = 0; i < 4; ++i) jobs.push_back(tiny_job("tiny" + std::to_string(i)));

  // The runaway yields every third instruction, so the watchdog is polled
  // about once per three instructions and reads the clock only on every
  // 64th poll; the deadline must still end the job promptly.
  const auto t0 = std::chrono::steady_clock::now();
  auto report = f.run(jobs);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  ASSERT_EQ(report.results.size(), 5u);
  EXPECT_EQ(report.results[0].status, JobStatus::kTimeout);
  for (size_t i = 1; i < 5; ++i) {
    EXPECT_EQ(report.results[i].status, JobStatus::kOk)
        << report.results[i].name << ": " << report.results[i].error;
  }
  EXPECT_EQ(report.metrics.timeouts, 1u);
  EXPECT_EQ(report.metrics.ok, 4u);
}

TEST(Farm, TimeoutBeyondTheClockRangeMeansNoDeadline) {
  // now() + timeout overflowed steady_clock into the past, so each of
  // these jobs used to time out on its first clock read. A deadline the
  // clock cannot represent is no deadline, for the job's own timeout and
  // for the farm's default alike.
  FarmConfig cfg;
  cfg.workers = 1;
  cfg.timeout_ms = 10'000'000'000'000;  // past the nanosecond clock's range
  auto spin = [](const char* name, u64 timeout_ms) {
    JobSpec spec;
    spec.name = name;
    spec.category = "test";
    spec.make = [] { return std::make_unique<SpinScenario>(); };
    spec.budget_override = 100'000;  // thousands of watchdog polls
    spec.timeout_ms = timeout_ms;
    return spec;
  };
  auto report = Farm(cfg).run({spin("job_timeout_max", UINT64_MAX),
                               spin("farm_timeout", 0)});
  ASSERT_EQ(report.results.size(), 2u);
  for (const JobResult& r : report.results) {
    EXPECT_EQ(r.status, JobStatus::kOk) << r.name << ": " << r.error;
    EXPECT_TRUE(r.budget_exhausted) << r.name;
  }
}

TEST(Farm, HarnessErrorIsReportedAndIsolated) {
  // A harness error is a fact of the job (its scenario is deterministic):
  // it is reported once, never retried, and the pool moves on.
  FarmConfig cfg;
  cfg.workers = 2;
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  JobSpec broken;
  broken.name = "broken";
  broken.category = "test";
  broken.make = [] { return std::make_unique<BrokenScenario>(); };
  jobs.push_back(std::move(broken));
  jobs.push_back(tiny_job("healthy"));

  auto report = f.run(jobs);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].status, JobStatus::kError);
  EXPECT_NE(report.results[0].error.find("missing sample image"),
            std::string::npos);
  EXPECT_EQ(report.results[1].status, JobStatus::kOk);
  EXPECT_EQ(report.metrics.errors, 1u);
}

TEST(Farm, ResultsStreamInStableIdOrder) {
  FarmConfig cfg;
  cfg.workers = 4;
  std::vector<u32> seen;
  cfg.on_result = [&](const JobResult& r) { seen.push_back(r.id); };
  Farm f(cfg);

  std::vector<JobSpec> jobs;
  for (int i = 0; i < 24; ++i) jobs.push_back(tiny_job("t" + std::to_string(i)));
  auto report = f.run(jobs);

  ASSERT_EQ(seen.size(), 24u);
  for (u32 i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
  for (u32 i = 0; i < report.results.size(); ++i)
    EXPECT_EQ(report.results[i].id, i);
}

TEST(Farm, CancelMidQueueDrainsCleanly) {
  // Repetition matters here: shutdown races only show up across runs.
  for (int round = 0; round < 5; ++round) {
    FarmConfig cfg;
    cfg.workers = 2;
    Farm f(cfg);

    std::vector<JobSpec> jobs;
    for (int i = 0; i < 120; ++i)
      jobs.push_back(tiny_job("j" + std::to_string(i)));

    farm::TriageReport report;
    std::thread runner([&] { report = f.run(jobs); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5 * round));
    f.request_cancel();
    runner.join();

    // Every job accounted for exactly once, ids ascending, and each is
    // either finished or cleanly cancelled — nothing lost, nothing hung.
    ASSERT_EQ(report.results.size(), 120u);
    for (u32 i = 0; i < report.results.size(); ++i) {
      const JobResult& r = report.results[i];
      EXPECT_EQ(r.id, i);
      EXPECT_TRUE(r.status == JobStatus::kOk ||
                  r.status == JobStatus::kCancelled)
          << r.name << " -> " << farm::job_status_name(r.status);
    }
    EXPECT_EQ(report.metrics.ok + report.metrics.cancelled, 120u);
  }
}

TEST(Farm, MultiPolicyFanOutMatchesSeparateRuns) {
  // Each extra policy set, evaluated on the job's one analyzed run, must
  // produce exactly what a separate farm run with that set as the primary
  // ruleset would.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(4);
  std::vector<core::RuleSpec> alt = core::builtin_rules(false, true, true);

  FarmConfig fan_cfg;
  fan_cfg.extra_policies.push_back(farm::PolicySet{"alt", alt});
  farm::TriageReport fan = Farm(fan_cfg).run(jobs);

  FarmConfig alone_cfg;
  alone_cfg.engine_opts.rules = alt;
  farm::TriageReport alone = Farm(alone_cfg).run(jobs);

  ASSERT_EQ(fan.results.size(), 4u);
  for (size_t i = 0; i < fan.results.size(); ++i) {
    const JobResult& a = fan.results[i];
    ASSERT_EQ(a.policy_runs.size(), 1u) << a.name;
    EXPECT_EQ(a.policy_runs[0].name, "alt");
    const JobResult& solo = alone.results[i];
    EXPECT_EQ(a.policy_runs[0].flagged, solo.flagged) << a.name;
    EXPECT_EQ(a.policy_runs[0].findings, solo.findings) << a.name;
    EXPECT_EQ(a.policy_runs[0].suppressed, solo.suppressed) << a.name;
    EXPECT_EQ(a.policy_runs[0].policies, solo.policies) << a.name;
    EXPECT_NE(farm::job_jsonl(a).find("\"policy_runs\":"), std::string::npos);
  }
  // Streams without extra policies never carry the field.
  FarmConfig plain_cfg;
  farm::TriageReport plain = Farm(plain_cfg).run(jobs);
  EXPECT_EQ(farm::job_jsonl(plain.results[0]).find("policy_runs"),
            std::string::npos);
}

TEST(Farm, ExtraPoliciesBootNoMachine) {
  // Extra policy sets ride on the job's one live run: a job clones the
  // snapshot once whatever the number of sets, and its copy-on-write
  // faults are those of a plain run. The metrics stream stays worker-count
  // invariant.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(4);
  auto run = [&](u32 workers, bool extra) {
    FarmConfig cfg;
    cfg.workers = workers;
    if (extra) {
      cfg.extra_policies.push_back(
          farm::PolicySet{"alt", core::builtin_rules(false, true, true)});
    }
    return Farm(cfg).run(jobs);
  };
  farm::TriageReport fan1 = run(1, true);
  farm::TriageReport fan4 = run(4, true);
  farm::TriageReport plain = run(1, false);

  ASSERT_EQ(fan1.results.size(), 4u);
  for (size_t i = 0; i < fan1.results.size(); ++i) {
    const obs::MetricSnapshot& m = fan1.results[i].metrics;
    ASSERT_TRUE(m.collected);
    EXPECT_EQ(m[obs::Ctr::kSnapClone], 1u) << fan1.results[i].name;
    EXPECT_EQ(plain.results[i].metrics[obs::Ctr::kSnapClone], 1u);
    EXPECT_EQ(m[obs::Ctr::kCowFault],
              plain.results[i].metrics[obs::Ctr::kCowFault]);
  }
  EXPECT_EQ(farm::metrics_jsonl(fan1), farm::metrics_jsonl(fan4));
}

TEST(Farm, ExtraPoliciesLeavePrimaryResultUntouched) {
  // Extra sets only add rule evaluations beside the primary's: apart from
  // the appended policy_runs field, each job line is byte-identical to a
  // run without extra policy sets.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(4);
  FarmConfig fan_cfg;
  fan_cfg.extra_policies.push_back(
      farm::PolicySet{"alt", core::builtin_rules(false, true, true)});
  farm::TriageReport fan = Farm(fan_cfg).run(jobs);
  farm::TriageReport plain = Farm(FarmConfig{}).run(jobs);

  ASSERT_EQ(fan.results.size(), plain.results.size());
  for (size_t i = 0; i < fan.results.size(); ++i) {
    JobResult stripped = fan.results[i];
    ASSERT_EQ(stripped.policy_runs.size(), 1u) << stripped.name;
    stripped.policy_runs.clear();
    EXPECT_EQ(farm::job_jsonl(stripped), farm::job_jsonl(plain.results[i]));
    EXPECT_TRUE(plain.results[i].flagged) << plain.results[i].name;
  }
}

TEST(Farm, ExtraPolicyMetricsEqualPlainRun) {
  // Only the primary set feeds the counters and the job boots no further
  // machine, so every counter equals a run without extra sets.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(3);
  FarmConfig fan_cfg;
  fan_cfg.extra_policies.push_back(
      farm::PolicySet{"alt", core::builtin_rules(false, true, true)});
  farm::TriageReport fan = Farm(fan_cfg).run(jobs);
  farm::TriageReport plain = Farm(FarmConfig{}).run(jobs);

  ASSERT_EQ(fan.results.size(), 3u);
  for (size_t i = 0; i < fan.results.size(); ++i) {
    const obs::MetricSnapshot& a = fan.results[i].metrics;
    const obs::MetricSnapshot& b = plain.results[i].metrics;
    ASSERT_TRUE(a.collected && b.collected);
    for (u32 c = 0; c < obs::kCtrCount; ++c) {
      EXPECT_EQ(a.counters[c], b.counters[c])
          << fan.results[i].name << " "
          << obs::ctr_name(static_cast<obs::Ctr>(c));
    }
  }
}

TEST(Farm, MultiPolicyStreamDeterministicAcrossWorkerCounts) {
  // Two extra sets: policy_runs follow the configured order, and the whole
  // results stream (policy_runs included) is worker-count invariant.
  auto jobs = corpus_jobs(attacks::injection_corpus());
  jobs.resize(4);
  auto run = [&](u32 workers) {
    FarmConfig cfg;
    cfg.workers = workers;
    cfg.extra_policies.push_back(
        farm::PolicySet{"first", core::builtin_rules(false, true, true)});
    cfg.extra_policies.push_back(
        farm::PolicySet{"second", core::builtin_rules(true, false, false)});
    return Farm(cfg).run(jobs);
  };
  farm::TriageReport w1 = run(1);
  farm::TriageReport w4 = run(4);

  ASSERT_EQ(w1.results.size(), 4u);
  for (const JobResult& r : w1.results) {
    ASSERT_EQ(r.policy_runs.size(), 2u) << r.name;
    EXPECT_EQ(r.policy_runs[0].name, "first");
    EXPECT_EQ(r.policy_runs[1].name, "second");
  }
  EXPECT_EQ(farm::results_jsonl(w1), farm::results_jsonl(w4));
}

TEST(TriageCli, RemovedExecutionModeFlagsAreRejected) {
  // The inline engine is the only DIFT mode, elision needs no summary
  // hints, static trigger pruning is gone, the farm always clones and
  // always runs the block cache (the uncached loop is a test reference):
  // the old switches and the ring size are unknown options, not silently
  // accepted no-ops.
  using farm::parse_triage_cli;
  const std::vector<std::vector<std::string>> removed = {
      {"--async-dift"},    {"--no-async-dift"},
      {"--sync-dift"},     {"--ring-capacity", "16"},
      {"--static-prune"},  {"--no-static-prune"},
      {"--summary-elide"}, {"--no-summary-elide"},
      {"--snapshot"},      {"--no-snapshot"},
      {"--block-cache"},   {"--no-block-cache"},
      {"--no-quiet"}};
  for (const auto& argv : removed) {
    farm::TriageCliResult r = parse_triage_cli(argv);
    EXPECT_FALSE(r.ok()) << argv[0];
    EXPECT_NE(r.error.find(argv[0]), std::string::npos) << r.error;
  }
  std::string usage = farm::triage_usage();
  EXPECT_EQ(usage.find("async"), std::string::npos);
  EXPECT_EQ(usage.find("sync-dift"), std::string::npos);
  EXPECT_EQ(usage.find("ring-capacity"), std::string::npos);
  EXPECT_EQ(usage.find("static-prune"), std::string::npos);
  EXPECT_EQ(usage.find("summary-elide"), std::string::npos);
  EXPECT_EQ(usage.find("snapshot"), std::string::npos);
  EXPECT_EQ(usage.find("block-cache"), std::string::npos);
  EXPECT_EQ(usage.find("--no-"), std::string::npos);
}

TEST(TriageCli, DuplicatePolicyStemsAreRejected) {
  // Extra sets are named by file stem, and policy_runs consumers key on
  // that name: two extra files with one stem are a usage error naming both.
  using farm::parse_triage_cli;
  farm::TriageCliResult dup = parse_triage_cli(
      {"--policies", "default.json,a/multi.json,b/multi.json"});
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.error.find("a/multi.json"), std::string::npos) << dup.error;
  EXPECT_NE(dup.error.find("b/multi.json"), std::string::npos) << dup.error;
  EXPECT_FALSE(parse_triage_cli({"--policies", "p.json,x/q.json,q.json"}).ok());

  // The primary carries no name, so it may share a stem with an extra set.
  farm::TriageCliResult ok = parse_triage_cli(
      {"--policies", "a/multi.json,b/multi.json,c/other.json"});
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.opts.policy_paths.size(), 3u);
}

TEST(TriageCli, EmptyPolicyEntriesAreRejected) {
  // An empty entry names no file: running the built-ins instead, or
  // dropping it from the list, would hide a typo.
  using farm::parse_triage_cli;
  for (const char* csv : {"", ",", "a.json,", ",a.json", "a.json,,b.json"}) {
    farm::TriageCliResult r = parse_triage_cli({"--policies", csv});
    EXPECT_FALSE(r.ok()) << "'" << csv << "'";
    EXPECT_NE(r.error.find("--policies"), std::string::npos) << r.error;
  }
  farm::TriageCliResult ok = parse_triage_cli({"--policies", "a.json"});
  ASSERT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(ok.opts.policy_paths, std::vector<std::string>{"a.json"});
}

TEST(TriageCli, MetricsPathComesOnlyFromTheFlag) {
  // The environment variable the parser once read as a fallback for
  // --metrics no longer sets the path, and the usage text does not name it.
  ASSERT_EQ(setenv("FAROS_METRICS_JSON", "env.jsonl", 1), 0);
  farm::TriageCliResult none = farm::parse_triage_cli({});
  farm::TriageCliResult flag = farm::parse_triage_cli({"--metrics", "m.jsonl"});
  unsetenv("FAROS_METRICS_JSON");
  ASSERT_TRUE(none.ok()) << none.error;
  EXPECT_TRUE(none.opts.metrics_path.empty());
  ASSERT_TRUE(flag.ok()) << flag.error;
  EXPECT_EQ(flag.opts.metrics_path, "m.jsonl");
  EXPECT_EQ(farm::triage_usage().find("FAROS_METRICS_JSON"),
            std::string::npos);
}

TEST(TriageCli, FlagsParseAndBadValuesAreRejected) {
  using farm::parse_triage_cli;

  farm::TriageCliResult def = parse_triage_cli({});
  ASSERT_TRUE(def.ok()) << def.error;
  EXPECT_FALSE(def.opts.quiet);
  EXPECT_EQ(def.opts.farm.timeout_ms, 60'000u);

  std::vector<std::string> argv = {
      "--workers", "8", "--jobs", "20", "--filter", "jit", "--category",
      "injection", "--timeout-ms", "1234", "--budget", "99", "--out",
      "r.jsonl", "--metrics", "m.jsonl", "--graph-out", "graphs",
      "--policies", "a.json,b.json,c.json", "--quiet"};
  farm::TriageCliResult once = parse_triage_cli(argv);
  ASSERT_TRUE(once.ok()) << once.error;
  EXPECT_EQ(once.opts.farm.workers, 8u);
  EXPECT_EQ(once.opts.max_jobs, 20u);
  EXPECT_EQ(once.opts.filter, "jit");
  EXPECT_EQ(once.opts.category, "injection");
  EXPECT_EQ(once.opts.farm.timeout_ms, 1234u);
  EXPECT_EQ(once.opts.budget, 99u);
  EXPECT_EQ(once.opts.out_path, "r.jsonl");
  EXPECT_EQ(once.opts.metrics_path, "m.jsonl");
  EXPECT_EQ(once.opts.farm.graph_out, "graphs");
  ASSERT_EQ(once.opts.policy_paths.size(), 3u);
  EXPECT_EQ(once.opts.policy_paths[1], "b.json");
  EXPECT_TRUE(once.opts.quiet);

  // Errors: unknown flags and missing values are reported, not swallowed.
  EXPECT_FALSE(parse_triage_cli({"--bogus"}).ok());
  // The farm runs no static pass, so the static verdict flag is an
  // unknown option.
  for (const char* no : {"", "no-"}) {
    const std::string gone = std::string("--") + no + "static-" + "prefilter";
    farm::TriageCliResult r = parse_triage_cli({gone});
    EXPECT_FALSE(r.ok()) << gone;
    EXPECT_NE(r.error.find(gone), std::string::npos) << r.error;
  }
  EXPECT_FALSE(parse_triage_cli({"--workers"}).ok());
  EXPECT_FALSE(parse_triage_cli({"--workers", "many"}).ok());
  EXPECT_FALSE(parse_triage_cli({"--filter"}).ok());

  // Numbers are plain decimal digits: no sign, no whitespace, no overflow,
  // and --workers must fit the u32 it is stored in.
  for (const char* bad : {"-1", "+3", " 7", "7 ", "", "0x10",
                          "18446744073709551616", "4294967296"}) {
    EXPECT_FALSE(parse_triage_cli({"--workers", bad}).ok()) << bad;
  }
  EXPECT_FALSE(parse_triage_cli({"--budget", "-5"}).ok());
  EXPECT_FALSE(
      parse_triage_cli({"--timeout-ms", "99999999999999999999"}).ok());
  farm::TriageCliResult max_workers =
      parse_triage_cli({"--workers", "4294967295", "--budget",
                        "18446744073709551615"});
  ASSERT_TRUE(max_workers.ok()) << max_workers.error;
  EXPECT_EQ(max_workers.opts.farm.workers, 4294967295u);
  EXPECT_EQ(max_workers.opts.budget, 18446744073709551615ull);

  // The grouped help names every flag.
  std::string usage = farm::triage_usage();
  for (const char* f : {"--workers", "--jobs", "--filter", "--category",
                        "--timeout-ms", "--budget", "--out", "--metrics",
                        "--graph-out", "--policies", "--list",
                        "--list-policies", "--quiet"}) {
    EXPECT_NE(usage.find(f), std::string::npos) << f;
  }
}

TEST(FarmResults, JsonlIsWellFormedAndEscaped) {
  JobResult r;
  r.id = 7;
  r.name = "weird \"name\"\twith\nescapes";
  r.category = "test";
  r.status = JobStatus::kOk;
  r.flagged = true;
  r.policies = {"netflow->exec"};
  std::string line = farm::job_jsonl(r);
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_NE(line.find("\\\"name\\\""), std::string::npos);
  EXPECT_NE(line.find("\\n"), std::string::npos);
  EXPECT_NE(line.find("\"verdict\":\"FP\""), std::string::npos);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // one record, one line

  farm::FarmMetrics m;
  m.jobs = 3;
  std::string s = farm::summary_jsonl(m);
  EXPECT_NE(s.find("\"type\":\"summary\""), std::string::npos);
  EXPECT_NE(s.find("\"jobs\":3"), std::string::npos);
}

}  // namespace
}  // namespace faros
