// triagebench — the measuring half of the triage benchmark (run.py is the
// other half: it builds this binary, turns its records into metrics and
// checks every verdict against ground truth).
//
//   triagebench --workload NAME --seed N --seconds S --trace 0|1
//               [--policy-dir DIR]
//
// Every workload is a closed loop through the product path: one Farm per
// repetition, every job queued up front, each worker taking the next job
// when its last one finishes. The seed only sets the submission order,
// reshuffled for every repetition from one seeded generator; the farm
// receives nothing but the job list. This program starts no threads of its
// own.
//
// Untraced (--trace 0): snapshot-capture set-up samples, then Farm::run
// repetitions until S seconds have passed.
//
// Traced (--trace 1): each repetition is one untraced Farm::run (the
// baseline for trace overhead and worker busy share, and the source of the
// counter stream) followed by a serial pass that, per job, spans
// Farm::run_job and then repeats the job's composition from the layers'
// public calls, one span per call. Spans stay in memory and are written
// when the run ends.
//
// Output: one JSON object per line on stdout; times are integer
// nanoseconds, and a repetition's job latencies are listed in corpus order. A verdict stream (farm::job_jsonl per job name) that
// differs between repetitions, or between the farm and the traced pass,
// exits 3 with the job named on stderr.
#include <sched.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "attacks/corpus.h"
#include "common/json.h"
#include "common/rng.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "farm/triage_cli.h"
#include "os/snapshot.h"
#include "sa/analyzer.h"

using namespace faros;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kT0 = Clock::now();

/// Snapshot captures per process; setup_s is the median over the run's
/// processes.
constexpr int kSetupSamples = 5;

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              Clock::now() - kT0)
                              .count());
}

[[noreturn]] void die(int code, const std::string& msg) {
  std::fprintf(stderr, "triagebench: %s\n", msg.c_str());
  std::exit(code);
}

void check(const Result<void>& r, const std::string& what) {
  if (!r.ok()) die(4, what + ": " + r.error().message);
}

u32 affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<u32>(CPU_COUNT(&set));
}

struct Workload {
  std::vector<farm::JobSpec> jobs;
  farm::FarmConfig cfg;
  /// Extra rulesets the traced pass replays each job under. The farm
  /// evaluates them too only on fanout_parallel.
  std::vector<farm::PolicySet> probe_policies;
};

Workload make_workload(const std::string& name, const std::string& policy_dir,
                       u32 nproc) {
  // Primary ruleset plus one record-once/analyze-many extra set, loaded
  // by the loader faros_triage --policies uses.
  farm::TriageCliOptions o;
  o.policy_paths = {policy_dir + "/default.json",
                    policy_dir + "/multistage.json"};
  if (std::string err = farm::load_policy_files(o); !err.empty()) {
    die(2, "policies: " + err);
  }
  Workload w;
  w.probe_policies = o.farm.extra_policies;
  std::vector<attacks::CorpusEntry> entries;
  if (name == "injection_serial") {
    entries = attacks::injection_corpus();
    w.cfg.workers = 1;
  } else if (name == "clean_serial") {
    for (auto& e : attacks::full_corpus()) {
      if (e.category != "injection") entries.push_back(std::move(e));
    }
    w.cfg.workers = 1;
  } else if (name == "fanout_parallel") {
    // Two workers, each replaying through two engine threads, already
    // fill a 4-thread host; more would measure the scheduler.
    w.cfg = std::move(o.farm);
    w.cfg.workers = std::min(2u, nproc);
    entries = attacks::full_corpus();
    for (auto& e : attacks::policy_corpus()) entries.push_back(std::move(e));
  } else {
    die(2, "unknown workload '" + name + "'");
  }
  for (auto& e : entries) {
    farm::JobSpec s;
    s.name = e.name;
    s.category = e.category;
    s.expect_flagged = e.expect_flagged;
    s.make = std::move(e.make);
    w.jobs.push_back(std::move(s));
  }
  return w;
}

/// Seeded Fisher-Yates over the submission order; ids follow the order,
/// as Farm::run assigns them.
void shuffle_jobs(std::vector<farm::JobSpec>& jobs, Rng& rng) {
  for (size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.below(i)]);
  }
  for (u32 i = 0; i < jobs.size(); ++i) jobs[i].id = i;
}

/// Verdict stream per job name; the first one seen is the reference. The
/// job id is the submission position, which every repetition reshuffles,
/// so the line is compared with the id set to 0.
class VerdictCheck {
 public:
  void check(farm::JobResult r, const char* where) {
    r.id = 0;
    std::string line = farm::job_jsonl(r);
    auto [it, fresh] = streams_.emplace(r.name, line);
    if (!fresh && it->second != line) {
      die(3, "verdict stream of job '" + r.name + "' differs (" + where +
                 ")\n  first: " + it->second + "\n  now:   " + line);
    }
  }

 private:
  std::map<std::string, std::string> streams_;
};

struct Span {
  const char* name;
  std::string job;
  u32 rep = 0;
  u64 start_ns = 0;
  u64 end_ns = 0;
  u64 insns = 0;
};

class Tracer {
 public:
  /// Runs f() inside a span and returns its result.
  template <typename F>
  auto span(const char* name, const std::string& job, u32 rep, F&& f) {
    u64 start = now_ns();
    auto out = f();
    spans_.push_back(Span{name, job, rep, start, now_ns(), 0});
    return out;
  }
  /// Instructions retired inside the last span (for ns/insn ratios).
  void set_insns(u64 n) { spans_.back().insns = n; }

  void write() const {
    for (const Span& s : spans_) {
      JsonWriter w;
      w.field("type", "span")
          .field("name", s.name)
          .field("job", s.job)
          .field("rep", s.rep)
          .field("start_ns", s.start_ns)
          .field("end_ns", s.end_ns)
          .field("insns", s.insns);
      std::printf("%s\n", w.str().c_str());
    }
  }

 private:
  std::vector<Span> spans_;
};

/// One job's composition, call by call, as Farm::run_job makes it with the
/// inline engine: extract + analyze the images (summary elide hints), boot
/// + set up + record, boot + set up + replay under a FarosEngine. Then two
/// probes that are not part of the job: a bare replay of the same log (no
/// plugin) and a replay under each extra ruleset. Checks that each engine
/// reaches the farm's verdict.
class JobTracer {
 public:
  JobTracer(Tracer& tr, const Workload& w, const os::MachineConfig& mcfg)
      : tr_(tr), w_(w), mcfg_(mcfg) {}

  void trace(const farm::JobSpec& spec, const farm::JobResult& ref, u32 rep) {
    job_ = &spec.name;
    rep_ = rep;
    std::unique_ptr<attacks::Scenario> sc = spec.make();
    const u64 budget = sc->budget();

    core::Options eopts = w_.cfg.engine_opts;
    auto images = span("sa.extract", [&] {
      return attacks::extract_images(*sc, mcfg_);
    });
    if (images.ok()) {
      std::vector<os::Image> imgs;
      for (auto& e : images.value()) imgs.push_back(std::move(e.image));
      sa::ProgramReport rep_sa =
          span("sa.analyze", [&] { return sa::analyze_images(*job_, imgs); });
      for (const sa::ImageReport& ir : rep_sa.per_image) {
        for (const sa::ElideHint& h : ir.elide_hints) {
          eopts.elide_hints[h.va].emplace_back(h.insns, h.hash);
        }
      }
    }

    auto rec = span("os.boot", [&] {
      auto m = std::make_unique<os::Machine>(mcfg_);
      check(m->boot(), *job_ + ": record boot");
      return m;
    });
    auto source = sc->make_source();
    if (source) rec->set_event_source(source.get());
    span("attacks.setup", [&] {
      check(sc->setup(*rec), *job_ + ": record setup");
      return 0;
    });
    os::RunStats rs = span("os.record", [&] { return rec->run(budget); });
    tr_.set_insns(rs.instructions);

    const vm::ReplayLog& log = rec->recording();
    if (replay(*sc, log, budget, &eopts, "core.replay", true) != ref.flagged) {
      mismatch("inline engine");
    }
    replay(*sc, log, budget, nullptr, "os.bare_replay", false);
    for (const farm::PolicySet& ps : w_.probe_policies) {
      core::Options o = eopts;
      o.rules = ps.rules;
      o.collect_metrics = false;
      bool flagged = replay(*sc, log, budget, &o, "core.fanout_replay", false);
      for (const auto& pr : ref.policy_runs) {
        if (pr.name == ps.name && pr.flagged != flagged) {
          mismatch("extra ruleset " + ps.name);
        }
      }
    }
  }

 private:
  template <typename F>
  std::invoke_result_t<F&> span(const char* name, F&& f) {
    return tr_.span(name, *job_, rep_, f);
  }

  [[noreturn]] void mismatch(const std::string& what) {
    die(3, "job '" + *job_ + "': " + what + " verdict differs from the farm's");
  }

  /// Replays `log` on a fresh clone, under an engine built from `opts`
  /// (none when null). Boot and setup are spanned only for the replay the
  /// farm's job makes. Returns the engine's verdict.
  bool replay(attacks::Scenario& sc, const vm::ReplayLog& log, u64 budget,
              const core::Options* opts, const char* run_span,
              bool in_job) {
    std::unique_ptr<os::Machine> m;
    std::unique_ptr<core::FarosEngine> eng;  // destroyed before the machine
    auto boot = [&] {
      m = std::make_unique<os::Machine>(mcfg_);
      if (opts) {
        eng = std::make_unique<core::FarosEngine>(m->kernel(), *opts);
        m->attach_cpu_plugin(eng.get());
        m->add_monitor(eng.get());
      }
      check(m->boot(), *job_ + ": replay boot");
      return 0;
    };
    auto setup = [&] {
      check(sc.setup(*m), *job_ + ": replay setup");
      return 0;
    };
    if (in_job) {
      span("os.boot", boot);
      span("attacks.setup", setup);
    } else {
      boot();
      setup();
    }
    m->load_replay(log);
    os::RunStats st = span(run_span, [&] { return m->run(budget); });
    tr_.set_insns(st.instructions);
    return eng && eng->flagged();
  }

  Tracer& tr_;
  const Workload& w_;
  const os::MachineConfig& mcfg_;
  const std::string* job_ = nullptr;
  u32 rep_ = 0;
};

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string policy_dir = "policies";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) die(2, k + " needs a value");
    std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") die(2, "--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--policy-dir") {
      a.policy_dir = v;
    } else {
      die(2, "unknown option '" + k + "'");
    }
  }
  if (a.workload.empty() || !have_seed || !have_seconds) {
    die(2,
        "usage: triagebench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--policy-dir DIR]");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const u32 nproc = affinity_cpus();
  Workload w = make_workload(args.workload, args.policy_dir, nproc);
  // Latencies are written in corpus order, so the i-th entry of every
  // repetition is the same job whatever its submission position.
  std::map<std::string, size_t> corpus_index;
  for (size_t i = 0; i < w.jobs.size(); ++i) {
    corpus_index[w.jobs[i].name] = i;
  }
  Rng order_rng(args.seed);

  JsonWriter env;
  env.field("type", "env")
      .field("hw_threads", std::thread::hardware_concurrency())
      .field("nproc", nproc)
      .field("workers", w.cfg.workers)
      .field("jobs", static_cast<u64>(w.jobs.size()))
      .field("build_type", TRIAGEBENCH_BUILD_TYPE)
      .field("compiler", TRIAGEBENCH_COMPILER);
  std::printf("%s\n", env.str().c_str());

  // Set-up: what every Farm::run pays once before its first job.
  os::MachineConfig mcfg = w.cfg.machine;
  std::string capture_ns;
  for (int i = 0; i < kSetupSamples; ++i) {
    u64 t = now_ns();
    auto snap = os::capture_snapshot(w.cfg.machine.kernel);
    t = now_ns() - t;
    if (!snap.ok()) die(4, "capture_snapshot: " + snap.error().message);
    mcfg.kernel.snapshot = snap.value();
    capture_ns += (i ? "," : "") + std::to_string(t);
  }
  std::printf("{\"type\":\"setup\",\"capture_ns\":[%s]}\n",
              capture_ns.c_str());

  VerdictCheck verdicts;
  Tracer tracer;
  JobTracer job_tracer(tracer, w, mcfg);
  const u64 deadline =
      now_ns() + static_cast<u64>(args.seconds * 1e9);
  u32 rep = 0;
  do {
    shuffle_jobs(w.jobs, order_rng);
    farm::Farm f(w.cfg);
    u64 t = now_ns();
    farm::TriageReport report = f.run(w.jobs);
    t = now_ns() - t;

    u32 ok = 0;
    std::vector<u64> wall_ns(w.jobs.size());
    for (const farm::JobResult& r : report.results) {
      verdicts.check(r, "between repetitions");
      if (r.status == farm::JobStatus::kOk) ++ok;
      wall_ns[corpus_index.at(r.name)] = static_cast<u64>(r.wall_ms * 1e6);
      if (rep != 0) continue;
      JsonWriter v;
      v.field("type", "verdict")
          .field("job", r.name)
          .field("category", r.category)
          .field("status", farm::job_status_name(r.status))
          .field("verdict", r.verdict());
      std::string extra;
      for (const auto& pr : r.policy_runs) {
        extra += (extra.empty() ? "\"" : ",\"") + json_escape(pr.name) +
                 "\":" + (pr.flagged ? "true" : "false");
      }
      v.raw_field("extra_flagged", "{" + extra + "}");
      std::printf("%s\n", v.str().c_str());
      if (args.trace && r.metrics.collected) {
        std::printf("%s\n", farm::job_metrics_jsonl(r).c_str());
      }
    }
    std::string job_ns;
    for (u64 ns : wall_ns) {
      job_ns += (job_ns.empty() ? "" : ",") + std::to_string(ns);
    }
    std::printf(
        "{\"type\":\"rep\",\"rep\":%u,\"wall_ns\":%llu,\"workers\":%u,"
        "\"jobs\":%zu,\"ok\":%u,\"job_ns\":[%s]}\n",
        rep, static_cast<unsigned long long>(t), f.config().workers,
        report.results.size(), ok, job_ns.c_str());

    if (args.trace) {
      // The farm instance already holds its snapshot, so no run_job span
      // pays for a capture.
      for (const farm::JobSpec& spec : w.jobs) {
        farm::JobResult r = tracer.span("farm.job", spec.name, rep,
                                        [&] { return f.run_job(spec); });
        verdicts.check(r, "traced run_job vs Farm::run");
        if (r.status != farm::JobStatus::kOk) {
          die(4, "traced job '" + spec.name + "' failed: " + r.error);
        }
        job_tracer.trace(spec, r, rep);
      }
    }
    ++rep;
  } while (now_ns() < deadline);

  tracer.write();
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  std::printf("{\"type\":\"rss\",\"peak_rss_kb\":%ld}\n", ru.ru_maxrss);
  return 0;
}
