// Three oracles over every job of the full and policy corpora.
//
// Live vs replay: the farm and attacks::analyze() run FAROS on the live run
// while it records. Replaying that run's log on a fresh machine under a
// fresh engine with the same options must reproduce the analysis exactly —
// findings, per-rule counts, provenance state, counters and the exported
// graph bytes. This pins that attaching the engine never perturbs the guest.
//
// Block cache on vs off: with the cache on, the engine runs offered blocks
// through uninstrumented fast bodies (including kDivu blocks that may trap
// mid-way). The cache-off run, every instruction through Table I, is the
// reference: the same live run must reach the same analysis and the same
// engine totals; only the elision and cache counters may differ.
//
// Fan-out vs solo: the farm evaluates extra policy sets beside the primary
// on the job's one engine. Each extra set must reach what a solo engine
// with that set as primary reaches, and the primary must not notice them.
// Live vs replay at corpus scale is what the first oracle keeps covering.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "attacks/scenarios.h"
#include "core/engine.h"
#include "core/rules.h"
#include "graph/graph.h"
#include "os/machine.h"
#include "os/snapshot.h"
#include "vm/btcache.h"

namespace faros {
namespace {

struct OracleJob {
  attacks::CorpusEntry entry;
  bool policy_rules = false;  // policy corpus: run under multistage rules
};

// Test names and GetParam() printouts show the job name, not the bytes.
void PrintTo(const OracleJob& job, std::ostream* os) { *os << job.entry.name; }

std::vector<OracleJob> oracle_jobs() {
  std::vector<OracleJob> out;
  for (auto& e : attacks::full_corpus()) out.push_back({std::move(e), false});
  for (auto& e : attacks::policy_corpus()) out.push_back({std::move(e), true});
  return out;
}

/// policies/multistage.json: the two built-in confluences plus the
/// config-only multi-stage-c2 rule the policy corpus is scored against.
std::vector<core::RuleSpec> multistage_rules() {
  auto rules = core::parse_ruleset_json(R"({"rules":[
    {"id":"netflow-export-confluence","trigger":"tainted-load","action":"flag",
     "when":["target has-type:export-table","fetch has-type:netflow"]},
    {"id":"cross-process-export-confluence","trigger":"tainted-load",
     "action":"flag",
     "when":["target has-type:export-table","fetch process-count>=2"]},
    {"id":"multi-stage-c2","trigger":"tainted-load","action":"flag",
     "when":["fetch distinct-netflows>=2"]}]})");
  EXPECT_TRUE(rules.ok()) << rules.error().message;
  return rules.ok() ? std::move(rules).take() : std::vector<core::RuleSpec>{};
}

/// The CI fan-out check's extra set: flag every tainted write into an
/// executable page. No other set binds its trigger or its value subject.
std::vector<core::RuleSpec> tcw_rules() {
  core::RuleSpec r;
  r.id = "tainted-code-write";
  r.trigger = core::Trigger::kExecPageWrite;
  return {r};
}

/// Snapshot-cloned machines, as the farm runs them (captured once per
/// block-cache setting).
const os::MachineConfig& machine_config(bool block_cache = true) {
  auto make = [](bool btc) {
    os::MachineConfig c;
    c.kernel.block_cache = btc;
    auto snap = os::capture_snapshot(c.kernel);
    EXPECT_TRUE(snap.ok()) << snap.error().message;
    if (snap.ok()) c.kernel.snapshot = snap.value();
    return c;
  };
  static const os::MachineConfig on = make(true);
  static const os::MachineConfig off = make(false);
  return block_cache ? on : off;
}

/// One analyzed run: the machine and engine stay alive for the comparison.
struct Analyzed {
  std::unique_ptr<os::Machine> machine;
  std::unique_ptr<core::FarosEngine> engine;  // destroyed before machine
  os::RunStats stats;
};

/// Runs the scenario under a fresh engine: live from its event source when
/// `log` is null, else replaying `log`. `extra` become further rule sets.
Analyzed run_analyzed(attacks::Scenario& sc, const core::Options& opts,
                     const vm::ReplayLog* log,
                     const std::vector<std::vector<core::RuleSpec>>& extra =
                         {},
                     const os::MachineConfig& mcfg = machine_config()) {
  Analyzed a;
  a.machine = std::make_unique<os::Machine>(mcfg);
  a.engine =
      std::make_unique<core::FarosEngine>(a.machine->kernel(), opts);
  for (const auto& rules : extra) a.engine->add_rule_set(rules);
  a.machine->attach_cpu_plugin(a.engine.get());
  a.machine->add_monitor(a.engine.get());
  auto b = a.machine->boot();
  EXPECT_TRUE(b.ok()) << b.error().message;
  std::unique_ptr<os::EventSource> source = log ? nullptr : sc.make_source();
  if (source) a.machine->set_event_source(source.get());
  auto s = sc.setup(*a.machine);
  EXPECT_TRUE(s.ok()) << s.error().message;
  if (log) a.machine->load_replay(*log);
  a.stats = a.machine->run(sc.budget());
  return a;
}

/// One rule set's verdict, findings field by field, and per-rule evals
/// and hits: set `as` of `ae` against set `bs` of `be`.
void expect_same_rule_set(const core::FarosEngine& ae, u32 as,
                          const core::FarosEngine& be, u32 bs) {
  EXPECT_EQ(ae.flagged(as), be.flagged(bs));
  ASSERT_EQ(ae.findings(as).size(), be.findings(bs).size());
  for (size_t i = 0; i < ae.findings(as).size(); ++i) {
    const core::Finding& a = ae.findings(as)[i];
    const core::Finding& b = be.findings(bs)[i];
    SCOPED_TRACE("finding " + std::to_string(i));
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instr_index, b.instr_index);
    EXPECT_EQ(a.proc.pid, b.proc.pid);
    EXPECT_EQ(a.proc.cr3, b.proc.cr3);
    EXPECT_EQ(a.proc.name, b.proc.name);
    EXPECT_EQ(a.insn_va, b.insn_va);
    EXPECT_EQ(a.insn_pa, b.insn_pa);
    EXPECT_EQ(a.disasm, b.disasm);
    EXPECT_EQ(a.target_va, b.target_va);
    EXPECT_EQ(a.fetch_prov, b.fetch_prov);
    EXPECT_EQ(a.target_prov, b.target_prov);
    EXPECT_EQ(a.whitelisted, b.whitelisted);
    EXPECT_EQ(a.warn_only, b.warn_only);
    EXPECT_EQ(a.code_base, b.code_base);
    EXPECT_EQ(a.code_window, b.code_window);
  }

  const core::RuleEngine& ar = ae.rule_engine(as);
  const core::RuleEngine& br = be.rule_engine(bs);
  ASSERT_EQ(ar.rule_count(), br.rule_count());
  for (u32 i = 0; i < ar.rule_count(); ++i) {
    EXPECT_EQ(ar.rule_id(i), br.rule_id(i));
    SCOPED_TRACE(ar.rule_id(i));
    EXPECT_EQ(ar.rule_stats(i).evals, br.rule_stats(i).evals);
    EXPECT_EQ(ar.rule_stats(i).hits, br.rule_stats(i).hits);
  }
}

/// The guest's course and everything the analysis produces: the primary
/// set's verdict, findings and per-rule counts, the report, provenance
/// state and the exported graph bytes. Counters are the caller's business.
void expect_same_analysis(const Analyzed& a_run, const Analyzed& b_run) {
  const core::FarosEngine& ae = *a_run.engine;
  const core::FarosEngine& be = *b_run.engine;

  // The guest ran the same course.
  EXPECT_EQ(a_run.stats.instructions, b_run.stats.instructions);
  EXPECT_EQ(a_run.stats.all_exited, b_run.stats.all_exited);
  EXPECT_EQ(a_run.machine->kernel().console(),
            b_run.machine->kernel().console());
  EXPECT_EQ(a_run.machine->kernel().trap_log(),
            b_run.machine->kernel().trap_log());

  expect_same_rule_set(ae, 0, be, 0);
  EXPECT_EQ(ae.report(), be.report());

  // Provenance state.
  EXPECT_EQ(ae.store().size(), be.store().size());
  EXPECT_EQ(ae.shadow().tainted_bytes(), be.shadow().tainted_bytes());

  // The exported provenance graph, byte for byte.
  EXPECT_EQ(graph::serialize(graph::build_graph(ae, a_run.machine->kernel())),
            graph::serialize(graph::build_graph(be, b_run.machine->kernel())));
}

/// The whole engine counter array, plus the block-cache stats the farm
/// folds into it. The clone counters are not in the engine's array: the
/// farm adds them per machine, so they count machines, not analysis.
void expect_same_counters(const Analyzed& a_run, const Analyzed& b_run) {
  obs::MetricSnapshot am = a_run.engine->metrics_snapshot();
  obs::MetricSnapshot bm = b_run.engine->metrics_snapshot();
  ASSERT_TRUE(am.collected && bm.collected);
  for (u32 c = 0; c < obs::kCtrCount; ++c) {
    EXPECT_EQ(am.counters[c], bm.counters[c])
        << obs::ctr_name(static_cast<obs::Ctr>(c));
  }
  const vm::BlockCache* ab = a_run.machine->kernel().interp().block_cache();
  const vm::BlockCache* bb = b_run.machine->kernel().interp().block_cache();
  ASSERT_EQ(ab == nullptr, bb == nullptr);
  if (ab) {
    EXPECT_EQ(ab->stats().translated, bb->stats().translated);
    EXPECT_EQ(ab->stats().hits, bb->stats().hits);
    EXPECT_EQ(ab->stats().evict_smc, bb->stats().evict_smc);
    EXPECT_EQ(ab->stats().evict_cr3, bb->stats().evict_cr3);
  }
}

std::string job_test_name(const ::testing::TestParamInfo<OracleJob>& info) {
  std::string name = info.param.entry.name;
  for (char& c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9');
    if (!ok) c = '_';
  }
  return name;
}

class LiveReplayOracle : public ::testing::TestWithParam<OracleJob> {};

TEST_P(LiveReplayOracle, ReplayReproducesLiveAnalysis) {
  const OracleJob& job = GetParam();
  std::unique_ptr<attacks::Scenario> sc = job.entry.make();
  ASSERT_TRUE(sc);
  core::Options opts;
  if (job.policy_rules) opts.rules = multistage_rules();

  Analyzed live = run_analyzed(*sc, opts, nullptr);
  const vm::ReplayLog log = live.machine->recording();
  Analyzed replay = run_analyzed(*sc, opts, &log);

  EXPECT_EQ(live.engine->flagged(), job.entry.expect_flagged);
  expect_same_analysis(live, replay);

  expect_same_counters(live, replay);
}

INSTANTIATE_TEST_SUITE_P(Corpus, LiveReplayOracle,
                         ::testing::ValuesIn(oracle_jobs()), job_test_name);

// Named for the static elide hints it once compared; the name stays so the
// per-job test ids stay stable. It now checks block elision itself.
class HintOracle : public ::testing::TestWithParam<OracleJob> {};

TEST_P(HintOracle, HintsNeverChangeTheAnalysis) {
  const OracleJob& job = GetParam();
  std::unique_ptr<attacks::Scenario> sc = job.entry.make();
  ASSERT_TRUE(sc);
  core::Options opts;
  if (job.policy_rules) opts.rules = multistage_rules();

  Analyzed ref = run_analyzed(*sc, opts, nullptr, {}, machine_config(false));
  Analyzed fast = run_analyzed(*sc, opts, nullptr);
  ASSERT_EQ(ref.machine->kernel().interp().block_cache(), nullptr);

  EXPECT_EQ(ref.engine->flagged(), job.entry.expect_flagged);
  expect_same_analysis(ref, fast);
  const core::EngineStats& r = ref.engine->stats();
  const core::EngineStats& f = fast.engine->stats();
  EXPECT_EQ(r.insns_seen, f.insns_seen);
  EXPECT_EQ(r.loads, f.loads);
  EXPECT_EQ(r.stores, f.stores);
  EXPECT_EQ(r.tainted_fetches, f.tainted_fetches);
  EXPECT_EQ(r.export_table_reads, f.export_table_reads);
  EXPECT_EQ(r.policy_evals, f.policy_evals);
  EXPECT_EQ(r.elided_insns, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, HintOracle,
                         ::testing::ValuesIn(oracle_jobs()), job_test_name);

class FanOutOracle : public ::testing::TestWithParam<OracleJob> {};

TEST_P(FanOutOracle, ExtraSetsMatchSoloRunsAndLeaveThePrimaryAlone) {
  // The built-ins as primary, with multistage and tcw beside them the way
  // the farm runs --policies default.json,multistage.json,tcw.json.
  const OracleJob& job = GetParam();
  std::unique_ptr<attacks::Scenario> sc = job.entry.make();
  ASSERT_TRUE(sc);
  core::Options opts;
  const std::vector<std::vector<core::RuleSpec>> extra = {multistage_rules(),
                                                          tcw_rules()};

  Analyzed plain = run_analyzed(*sc, opts, nullptr);
  Analyzed fan = run_analyzed(*sc, opts, nullptr, extra);
  ASSERT_EQ(fan.engine->rule_set_count(), 1 + extra.size());
  expect_same_analysis(plain, fan);
  expect_same_counters(plain, fan);

  for (u32 i = 0; i < extra.size(); ++i) {
    SCOPED_TRACE("extra set " + std::to_string(i + 1));
    core::Options solo_opts = opts;
    solo_opts.rules = extra[i];
    Analyzed solo = run_analyzed(*sc, solo_opts, nullptr);
    expect_same_rule_set(*fan.engine, i + 1, *solo.engine, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FanOutOracle,
                         ::testing::ValuesIn(oracle_jobs()), job_test_name);

}  // namespace
}  // namespace faros
