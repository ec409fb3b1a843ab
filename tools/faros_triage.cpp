// faros_triage — corpus triage CLI over the farm.
//
// Fans the scenario corpus (11 injection attacks, 20 JIT workloads, the
// 104-sample Table IV battery) across a worker pool, streams one JSONL
// record per job in stable job-id order, and prints a scored summary.
//
//   faros_triage                         # full corpus, hardware workers
//   faros_triage --workers 4 --filter jit
//   faros_triage --category injection --out results.jsonl
//   faros_triage --metrics metrics.jsonl # obs counter stream per job
//   faros_triage --list                  # print the catalogue and exit
//   faros_triage --policies my.json      # replace the built-in ruleset
//   faros_triage --policies a.json,b.json
//                                        # one run, a verdict per policy
//                                        # set (policy_runs JSONL field)
//   faros_triage --list-policies         # print the effective ruleset JSON
//   faros_triage --graph-out graphs/     # one .fpg provenance graph per job
//
// Argument parsing lives in src/farm/triage_cli.{h,cpp} so tests can drive
// the exact parser this binary uses; this file is only corpus assembly,
// streaming and the scored summary.
//
// Loading a policy file (or asking for --category policy) also enumerates
// the policy corpus — scenarios like multi_stage_c2 whose ground truth
// depends on the loaded ruleset, kept out of the default catalogue so the
// built-in-rule scoring stays byte-stable.
//
// Exit code: 0 when every job completed (flagged or clean), 1 on harness
// errors / timeouts / bad usage.
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "core/rules.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "farm/triage_cli.h"

using namespace faros;

int main(int argc, char** argv) {
  farm::TriageCliResult cli =
      farm::parse_triage_cli({argv + 1, argv + argc});
  if (!cli.ok()) {
    std::fprintf(stderr, "faros_triage: %s\n%s", cli.error.c_str(),
                 farm::triage_usage().c_str());
    return 1;
  }
  farm::TriageCliOptions& opt = cli.opts;
  if (opt.help) {
    std::fprintf(stderr, "%s", farm::triage_usage().c_str());
    return 0;
  }

  std::string perr = farm::load_policy_files(opt);
  if (!perr.empty()) {
    std::fprintf(stderr, "faros_triage: %s\n", perr.c_str());
    return 1;
  }
  farm::FarmConfig& cfg = opt.farm;

  if (opt.list_policies) {
    // Print the ruleset the engine would actually run — the policy file if
    // one was loaded, otherwise the built-ins — in policy-file JSON, so the
    // output can be saved and fed back through --policies unchanged.
    std::vector<core::RuleSpec> specs = cfg.engine_opts.rules;
    if (specs.empty()) specs = core::builtin_rules();
    std::printf("%s\n", core::ruleset_json(specs).c_str());
    return 0;
  }

  std::vector<attacks::CorpusEntry> catalogue = attacks::full_corpus();
  if (!opt.policy_paths.empty() || opt.category == "policy") {
    // Policy-dependent scenarios only make sense when the ruleset that
    // defines their ground truth is in play (or when asked for by name).
    for (auto& e : attacks::policy_corpus()) catalogue.push_back(std::move(e));
  }
  std::vector<farm::JobSpec> jobs;
  for (auto& e : catalogue) {
    if (!opt.filter.empty() && e.name.find(opt.filter) == std::string::npos) {
      continue;
    }
    if (!opt.category.empty() && e.category != opt.category) continue;
    if (opt.max_jobs && jobs.size() >= opt.max_jobs) break;
    farm::JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    spec.budget_override = opt.budget;
    jobs.push_back(std::move(spec));
  }
  if (jobs.empty()) {
    std::fprintf(stderr, "faros_triage: no jobs match\n");
    return 1;
  }

  if (opt.list_only) {
    std::printf("%-36s %-10s %s\n", "job", "category", "expected");
    for (const auto& j : jobs) {
      std::printf("%-36s %-10s %s\n", j.name.c_str(), j.category.c_str(),
                  j.expect_flagged ? "flagged" : "clean");
    }
    std::printf("%zu jobs\n", jobs.size());
    return 0;
  }

  FILE* out = nullptr;
  if (!opt.out_path.empty()) {
    out = std::fopen(opt.out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "faros_triage: cannot open '%s'\n",
                   opt.out_path.c_str());
      return 1;
    }
  }
  FILE* metrics_out = nullptr;
  if (!opt.metrics_path.empty()) {
    metrics_out = std::fopen(opt.metrics_path.c_str(), "w");
    if (!metrics_out) {
      std::fprintf(stderr, "faros_triage: cannot open '%s'\n",
                   opt.metrics_path.c_str());
      if (out) std::fclose(out);
      return 1;
    }
  }

  // Stream each record the moment the reorder buffer releases it: the
  // console and the JSONL file both see stable job-id order live.
  const size_t total = jobs.size();  // jobs is moved into run() below
  const bool quiet = opt.quiet;
  cfg.on_result = [&](const farm::JobResult& r) {
    if (out) std::fprintf(out, "%s\n", farm::job_jsonl(r).c_str());
    if (metrics_out && r.metrics.collected) {
      std::fprintf(metrics_out, "%s\n", farm::job_metrics_jsonl(r).c_str());
    }
    if (!quiet) {
      std::printf("[%4u/%4zu] %-36s %-10s %-9s %-3s %s\n", r.id + 1,
                  total, r.name.c_str(), r.category.c_str(),
                  farm::job_status_name(r.status), r.verdict(),
                  r.error.c_str());
      std::fflush(stdout);
    }
  };

  farm::Farm f(cfg);
  farm::TriageReport report = f.run(std::move(jobs));

  if (out) {
    std::fprintf(out, "%s\n", farm::summary_jsonl(report.metrics).c_str());
    std::fclose(out);
  }
  if (metrics_out) {
    std::fprintf(metrics_out, "%s\n",
                 farm::metrics_summary_jsonl(report).c_str());
    std::fclose(metrics_out);
  }

  u32 tp = 0, fp = 0, tn = 0, fn = 0;
  for (const auto& r : report.results) {
    std::string v = r.verdict();
    if (v == "TP") ++tp;
    else if (v == "FP") ++fp;
    else if (v == "TN") ++tn;
    else if (v == "FN") ++fn;
  }
  std::printf("\n%s\n", farm::summary_text(report.metrics).c_str());
  std::printf("scoring vs paper ground truth: %u TP, %u FP, %u TN, %u FN\n",
              tp, fp, tn, fn);

  bool clean_run = report.metrics.errors == 0 && report.metrics.timeouts == 0 &&
                   report.metrics.cancelled == 0;
  return clean_run ? 0 : 1;
}
