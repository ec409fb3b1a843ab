#include "farm/results.h"

#include <cstdio>

#include "common/json.h"

namespace faros::farm {

namespace {

std::string policies_json(const std::vector<std::string>& policies) {
  std::string out = "[";
  for (size_t i = 0; i < policies.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(policies[i]);
    out += '"';
  }
  out += ']';
  return out;
}

std::string policy_runs_json(const std::vector<JobResult::PolicyRun>& runs) {
  std::string out = "[";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i) out += ',';
    JsonWriter w;
    w.field("name", runs[i].name)
        .field("flagged", runs[i].flagged)
        .field("findings", runs[i].findings)
        .field("suppressed", runs[i].suppressed)
        .raw_field("policies", policies_json(runs[i].policies));
    out += w.str();
  }
  out += ']';
  return out;
}

std::string rules_json(const std::vector<JobResult::RuleCount>& rules) {
  std::string out = "[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i) out += ',';
    JsonWriter w;
    w.field("id", rules[i].id)
        .field("evals", rules[i].evals)
        .field("hits", rules[i].hits);
    out += w.str();
  }
  out += ']';
  return out;
}

}  // namespace

std::string job_jsonl(const JobResult& r) {
  JsonWriter w;
  w.field("type", "job")
      .field("id", r.id)
      .field("name", r.name)
      .field("category", r.category)
      .field("status", job_status_name(r.status))
      .field("flagged", r.flagged)
      .field("expected", r.expect_flagged)
      .field("verdict", r.verdict())
      .field("findings", r.findings)
      .field("suppressed", r.suppressed)
      .raw_field("policies", policies_json(r.policies))
      // Both keys carry the one live run (kept for stream compatibility).
      .field("record_insns", r.instructions)
      .field("replay_insns", r.instructions)
      .field("all_exited", r.all_exited)
      .field("budget_exhausted", r.budget_exhausted)
      .field("prov_lists", static_cast<u64>(r.prov_lists))
      .field("tainted_bytes", r.tainted_bytes)
      .field("retries", r.retries)
      .field("error", r.error);
  // Per-rule eval/hit counts, in engine rule order. Only present when the
  // replay ran (empty on error/timeout/cancel), and identical whether the
  // ruleset came from the built-ins or an equivalent policy file — the
  // CI default-vs-file byte-diff depends on that.
  if (!r.rules.empty()) w.raw_field("rules", rules_json(r.rules));
  // Per-policy-set verdicts, present only when extra policy sets were
  // configured — streams from single-policy runs stay byte-identical.
  if (!r.policy_runs.empty()) {
    w.raw_field("policy_runs", policy_runs_json(r.policy_runs));
  }
  // Graph-export fields are appended only when FarmConfig::graph_out was
  // set, so streams from runs without it stay byte-for-byte unchanged.
  if (r.graph_built) {
    w.field("graph_nodes", r.graph_nodes)
        .field("graph_edges", r.graph_edges)
        .field("graph_bytes", r.graph_bytes);
  }
  return w.str();
}

std::string summary_jsonl(const FarmMetrics& m) {
  JsonWriter w;
  w.field("type", "summary")
      .field("jobs", m.jobs)
      .field("ok", m.ok)
      .field("flagged", m.flagged)
      .field("clean", m.clean)
      .field("errors", m.errors)
      .field("timeouts", m.timeouts)
      .field("cancelled", m.cancelled)
      .field("instructions", m.instructions)
      .field("wall_s", m.wall_s)
      .field("jobs_per_s", m.jobs_per_s)
      .field("insns_per_s", m.insns_per_s)
      .field("p50_ms", m.p50_ms)
      .field("p95_ms", m.p95_ms)
      .field("record_s", m.record_s);
  return w.str();
}

std::string results_jsonl(const TriageReport& report) {
  std::string out;
  for (const auto& r : report.results) {
    out += job_jsonl(r);
    out += '\n';
  }
  return out;
}

std::string job_metrics_jsonl(const JobResult& r) {
  JsonWriter w;
  w.field("type", "job_metrics").field("id", r.id).field("name", r.name);
  obs::append_counter_fields(w, r.metrics);
  return w.str();
}

std::string metrics_summary_jsonl(const TriageReport& report) {
  obs::MetricSnapshot total;
  u32 collected = 0;
  for (const auto& r : report.results) {
    if (!r.metrics.collected) continue;
    ++collected;
    total.merge(r.metrics);
  }
  // merge() also sums timer_ns; zero it so the (nondeterministic) timers
  // can never leak into this deterministic stream.
  total.timer_ns.fill(0);
  JsonWriter w;
  w.field("type", "metrics_summary").field("jobs_collected", collected);
  obs::append_counter_fields(w, total);
  return w.str();
}

std::string metrics_jsonl(const TriageReport& report) {
  std::string out;
  for (const auto& r : report.results) {
    if (!r.metrics.collected) continue;
    out += job_metrics_jsonl(r);
    out += '\n';
  }
  out += metrics_summary_jsonl(report);
  out += '\n';
  return out;
}

std::string summary_text(const FarmMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%u jobs in %.2fs: %u flagged, %u clean, %u errors, "
                "%u timeouts, %u cancelled | %.1f jobs/s, %.2fM insns/s, "
                "latency p50 %.1fms p95 %.1fms",
                m.jobs, m.wall_s, m.flagged, m.clean, m.errors, m.timeouts,
                m.cancelled, m.jobs_per_s, m.insns_per_s / 1e6, m.p50_ms,
                m.p95_ms);
  return buf;
}

}  // namespace faros::farm
