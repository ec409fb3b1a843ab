// Declarative confluence-rule engine: JSON parser units, predicate/ruleset
// grammar round-trips, trigger dispatch semantics (suppress / warn / the
// per-trigger hot-path masks), equivalence of the spec-defined built-ins
// with the historical hardcoded behaviour, config-only detection of the
// multi-stage C2 scenario, and the farm-level policy-file byte-diff.
#include <gtest/gtest.h>

#include "attacks/corpus.h"
#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/rules.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros::core {
namespace {

using attacks::emit_sys;
using os::ImageBuilder;
using os::kUserImageBase;
using os::Sys;
using vm::Reg;

// ---------------------------------------------------------------------------
// common/json parser.

TEST(JsonParse, ScalarsArraysObjects) {
  auto r = json_parse(
      R"({"a": 17, "b": [true, null, "x"], "c": {"d": -2.5}, "e": false})");
  ASSERT_TRUE(r.ok()) << r.error().message;
  const JsonValue& v = r.value();
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.get("a"), nullptr);
  EXPECT_TRUE(v.get("a")->is_number());
  EXPECT_EQ(v.get("a")->as_u64(), 17u);
  const JsonValue* b = v.get("b");
  ASSERT_TRUE(b && b->is_array());
  ASSERT_EQ(b->items.size(), 3u);
  EXPECT_TRUE(b->items[0].is_bool());
  EXPECT_TRUE(b->items[0].boolean);
  EXPECT_TRUE(b->items[1].is_null());
  EXPECT_EQ(b->items[2].string, "x");
  const JsonValue* c = v.get("c");
  ASSERT_TRUE(c && c->is_object());
  EXPECT_DOUBLE_EQ(c->get("d")->number, -2.5);
  EXPECT_EQ(c->get("d")->as_u64(), 0u);  // negative -> 0, not a wrap
  EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(JsonParse, StringEscapesIncludingSurrogatePairs) {
  auto r = json_parse(R"(["a\"b\\c\n\t", "\u0041", "\u00e9", "\ud83d\ude00"])");
  ASSERT_TRUE(r.ok()) << r.error().message;
  const auto& items = r.value().items;
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].string, "a\"b\\c\n\t");
  EXPECT_EQ(items[1].string, "A");
  EXPECT_EQ(items[2].string, "\xc3\xa9");
  EXPECT_EQ(items[3].string, "\xf0\x9f\x98\x80");
}

TEST(JsonParse, RejectsMalformedInput) {
  const char* bad[] = {
      "",            // no value
      "{",           // unterminated object
      "[1,]",        // trailing comma
      "{} garbage",  // trailing bytes after the document
      "tru",         // truncated keyword
      "\"\\u12\"",   // short unicode escape
      "{\"a\" 1}",   // missing colon
  };
  for (const char* text : bad) {
    auto r = json_parse(text);
    EXPECT_FALSE(r.ok()) << "accepted: " << text;
  }
  // Depth bomb: a complete document one level past the recursion cap.
  std::string deep = std::string(66, '[') + std::string(66, ']');
  EXPECT_FALSE(json_parse(deep).ok());
  EXPECT_TRUE(json_parse(std::string(60, '[') + std::string(60, ']')).ok());
}

// ---------------------------------------------------------------------------
// Grammar round-trips.

TEST(RuleGrammar, TriggerAndActionRoundTrip) {
  const Trigger triggers[] = {Trigger::kTaintedLoad, Trigger::kTaintedStore,
                              Trigger::kExecPageWrite, Trigger::kTaintedFetch,
                              Trigger::kSyscallArg};
  for (Trigger t : triggers) {
    auto back = parse_trigger(trigger_name(t));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), t);
  }
  EXPECT_FALSE(parse_trigger("tainted-branch").ok());
  const RuleAction actions[] = {RuleAction::kFlag, RuleAction::kWarn,
                                RuleAction::kSuppress};
  for (RuleAction a : actions) {
    auto back = parse_action(action_name(a));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), a);
  }
  EXPECT_FALSE(parse_action("ignore").ok());
}

TEST(RuleGrammar, PredicateRoundTrip) {
  const char* texts[] = {
      "fetch has-type:netflow",        "target has-type:export-table",
      "value has-type:file",           "fetch has-type:process",
      "fetch process-count>=2",        "value distinct-netflows>=3",
      "page-flag:exec",
  };
  for (const char* text : texts) {
    auto p = parse_predicate(text);
    ASSERT_TRUE(p.ok()) << text << ": " << p.error().message;
    EXPECT_EQ(predicate_str(p.value()), text);
  }
}

TEST(RuleGrammar, PredicateParseErrors) {
  const char* bad[] = {
      "bogus has-type:netflow",     // unknown subject
      "fetch has-type:keyboard",    // unknown tag type
      "fetch process-count>=x",     // non-numeric threshold
      "fetch process-count>=",      // empty threshold
      "fetch distinct-netflows>=9999999999",  // > 9 digits
      "fetch",                      // no check
      "value frobnicate",           // unknown check
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_predicate(text).ok()) << "accepted: " << text;
  }
}

TEST(RuleGrammar, RulesetJsonRoundTrip) {
  std::vector<RuleSpec> rules = builtin_rules(true, true, true);
  RuleSpec extra;
  extra.id = "multi-stage-c2";
  extra.trigger = Trigger::kTaintedLoad;
  extra.when = {parse_predicate("fetch distinct-netflows>=2").value()};
  extra.action = RuleAction::kWarn;
  rules.push_back(extra);
  auto back = parse_ruleset_json(ruleset_json(rules));
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(back.value(), rules);
}

// Pins policies/default.json: this inline copy of the file must parse to
// exactly the built-ins the default engine Options select, so shipping the
// file through --policies cannot change behaviour (the CI byte-diff checks
// the same property end to end through faros_triage).
TEST(RuleGrammar, DefaultPolicyFileEqualsBuiltins) {
  const char* default_json = R"({
  "rules": [
    {
      "id": "netflow-export-confluence",
      "trigger": "tainted-load",
      "action": "flag",
      "when": [
        "target has-type:export-table",
        "fetch has-type:netflow"
      ]
    },
    {
      "id": "cross-process-export-confluence",
      "trigger": "tainted-load",
      "action": "flag",
      "when": [
        "target has-type:export-table",
        "fetch process-count>=2"
      ]
    }
  ]
})";
  auto parsed = parse_ruleset_json(default_json);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed.value(), builtin_rules(true, true, false));
}

TEST(RuleGrammar, RulesetParseErrors) {
  const char* bad[] = {
      R"([1,2])",                                          // not an object
      R"({"policies":[]})",                                // unknown top key
      R"({"rules":[{"id":"x"}]})",                         // missing trigger
      R"({"rules":[{"trigger":"tainted-load"}]})",         // missing id
      R"({"rules":[{"id":"","trigger":"tainted-load"}]})", // empty id
      R"({"rules":[{"id":"x","trigger":"nope"}]})",        // bad trigger
      R"({"rules":[{"id":"x","trigger":"tainted-load","action":"zap"}]})",
      R"({"rules":[{"id":"x","trigger":"tainted-load","color":"red"}]})",
      R"({"rules":[{"id":"x","trigger":"tainted-load","when":["gibberish"]}]})",
      R"({"rules":[{"id":"x","trigger":"tainted-load"},
                   {"id":"x","trigger":"syscall-arg"}]})",  // duplicate id
  };
  for (const char* text : bad) {
    EXPECT_FALSE(parse_ruleset_json(text).ok()) << "accepted: " << text;
  }
}

TEST(RuleGrammar, CountThresholdsAbove255RejectedAtLoadTime) {
  // Provenance-list counts saturate at 255 (provenance.h), so a rule with
  // process-count>=256 could never fire. Loading one must fail loudly —
  // naming the rule — instead of shipping a silently dead policy.
  const char* unsat_process = R"({
  "rules": [
    {
      "id": "impossible-fanout",
      "trigger": "tainted-load",
      "when": ["fetch process-count>=256"]
    }
  ]
})";
  auto p = parse_ruleset_json(unsat_process);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.error().message.find("impossible-fanout"), std::string::npos);
  EXPECT_NE(p.error().message.find("255"), std::string::npos);

  const char* unsat_netflow = R"({
  "rules": [
    {
      "id": "impossible-flows",
      "trigger": "tainted-load",
      "when": ["target distinct-netflows>=300"]
    }
  ]
})";
  auto q = parse_ruleset_json(unsat_netflow);
  ASSERT_FALSE(q.ok());
  EXPECT_NE(q.error().message.find("impossible-flows"), std::string::npos);

  // The saturation value itself is still reachable and must load.
  const char* at_limit = R"({
  "rules": [
    {
      "id": "at-the-limit",
      "trigger": "tainted-load",
      "when": ["fetch process-count>=255", "value distinct-netflows>=255"]
    }
  ]
})";
  EXPECT_TRUE(parse_ruleset_json(at_limit).ok());
}

TEST(ProvStoreMeta, NetflowCountIsDistinctNetflowTags) {
  ProvStore store;
  EXPECT_EQ(store.netflow_count(kEmptyProv), 0u);
  auto one = store.intern({ProvTag::netflow(1), ProvTag::process(1)});
  EXPECT_EQ(store.netflow_count(one), 1u);
  auto two = store.append(one, ProvTag::netflow(2));
  EXPECT_EQ(store.netflow_count(two), 2u);
  // Appending a duplicate tag does not create a new netflow.
  EXPECT_EQ(store.netflow_count(store.append(two, ProvTag::netflow(2))), 2u);
}

TEST(RuleEngineUnit, HotPathMasksFollowBoundRules) {
  RuleEngine re;
  re.configure(builtin_rules(true, true, false));
  EXPECT_TRUE(re.has_rules(Trigger::kTaintedLoad));
  EXPECT_FALSE(re.has_rules(Trigger::kTaintedStore));
  EXPECT_FALSE(re.has_rules(Trigger::kTaintedFetch));
  EXPECT_FALSE(re.has_rules(Trigger::kSyscallArg));
  // The default rules never look at value provenance: the load fast path
  // must not pay the extra merge.
  EXPECT_FALSE(re.needs_value(Trigger::kTaintedLoad));
  EXPECT_FALSE(re.needs_page_flags(Trigger::kTaintedStore));

  RuleSpec value_rule;
  value_rule.id = "v";
  value_rule.trigger = Trigger::kTaintedLoad;
  value_rule.when = {parse_predicate("value has-type:netflow").value()};
  RuleSpec page_rule;
  page_rule.id = "p";
  page_rule.trigger = Trigger::kTaintedStore;
  page_rule.when = {parse_predicate("page-flag:exec").value()};
  RuleSpec exec_rule;
  exec_rule.id = "e";
  exec_rule.trigger = Trigger::kExecPageWrite;
  exec_rule.when = {parse_predicate("page-flag:exec").value()};
  re.configure({value_rule, page_rule, exec_rule});
  EXPECT_TRUE(re.needs_value(Trigger::kTaintedLoad));
  EXPECT_TRUE(re.needs_page_flags(Trigger::kTaintedStore));
  // exec-page-write implies the flag; it must never request the query.
  EXPECT_FALSE(re.needs_page_flags(Trigger::kExecPageWrite));
}

// ---------------------------------------------------------------------------
// Engine-level semantics on real scenario runs.

core::Options with_rules(std::vector<RuleSpec> rules) {
  core::Options opts;
  opts.rules = std::move(rules);
  return opts;
}

TEST(RuleEngineScenario, SpecBuiltinsReproduceDefaultFindings) {
  attacks::ReflectiveDllScenario sc1(attacks::ReflectiveVariant::kMeterpreter);
  auto base = attacks::analyze(sc1);
  ASSERT_TRUE(base.ok()) << base.error().message;
  attacks::ReflectiveDllScenario sc2(attacks::ReflectiveVariant::kMeterpreter);
  auto spec = attacks::analyze(sc2, with_rules(builtin_rules(true, true, false)));
  ASSERT_TRUE(spec.ok()) << spec.error().message;

  EXPECT_TRUE(base.value().flagged);
  EXPECT_TRUE(spec.value().flagged);
  ASSERT_EQ(base.value().findings.size(), spec.value().findings.size());
  for (size_t i = 0; i < base.value().findings.size(); ++i) {
    const Finding& a = base.value().findings[i];
    const Finding& b = spec.value().findings[i];
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.instr_index, b.instr_index);
    EXPECT_EQ(a.insn_va, b.insn_va);
    EXPECT_EQ(a.proc.name, b.proc.name);
    EXPECT_EQ(a.fetch_prov, b.fetch_prov);
    EXPECT_EQ(a.target_prov, b.target_prov);
  }
  EXPECT_EQ(base.value().engine_stats.policy_evals,
            spec.value().engine_stats.policy_evals);
}

TEST(RuleEngineScenario, SuppressRuleCancelsMatchesOfSameTrigger) {
  auto rules = builtin_rules(true, true, false);
  RuleSpec sup;
  sup.id = "analyst-exception";
  sup.trigger = Trigger::kTaintedLoad;
  sup.when = {parse_predicate("target has-type:export-table").value()};
  sup.action = RuleAction::kSuppress;
  rules.push_back(sup);
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  auto run = attacks::analyze(sc, with_rules(rules));
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_FALSE(run.value().flagged);
  EXPECT_TRUE(run.value().findings.empty());
}

TEST(RuleEngineScenario, WarnRuleRecordsWithoutFlagging) {
  auto rules = builtin_rules(true, true, false);
  for (RuleSpec& r : rules) r.action = RuleAction::kWarn;
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  auto run = attacks::analyze(sc, with_rules(rules));
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_FALSE(run.value().flagged);
  ASSERT_FALSE(run.value().findings.empty());
  for (const Finding& f : run.value().findings) {
    EXPECT_TRUE(f.warn_only);
    EXPECT_FALSE(f.whitelisted);  // warn is not the whitelist: still active
  }
}

// ---------------------------------------------------------------------------
// Trigger coverage with tiny guest programs.

class TriggerTest : public ::testing::Test {
 protected:
  void init(core::Options opts) {
    machine_ = std::make_unique<os::Machine>();
    engine_ = std::make_unique<FarosEngine>(machine_->kernel(), opts);
    machine_->attach_cpu_plugin(engine_.get());
    machine_->add_monitor(engine_.get());
    auto r = machine_->boot();
    ASSERT_TRUE(r.ok()) << r.error().message;
  }

  static core::Options quiet_with_rules(std::vector<RuleSpec> rules) {
    core::Options opts;
    opts.taint_mapped_images = false;
    opts.rules = std::move(rules);
    return opts;
  }

  os::Pid spawn_suspended(const std::string& name,
                          const std::function<void(ImageBuilder&)>& build) {
    ImageBuilder ib(name, kUserImageBase);
    build(ib);
    auto img = ib.build();
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
    auto src_off = ib.asm_().label_offset("src");
    src_ = src_off.ok() ? kUserImageBase + src_off.value() : 0;
    std::string path = "C:/test/" + name;
    machine_->kernel().vfs().create(path, img.value().serialize());
    auto pid = machine_->kernel().spawn(path, /*suspended=*/true);
    EXPECT_TRUE(pid.ok());
    return pid.ok() ? pid.value() : 0;
  }

  void taint_packet(os::Process& p, VAddr va, u32 len) {
    osi::GuestXfer xfer{p.info(), &p.as, va, len};
    engine_->on_packet_to_guest(
        xfer, FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162});
  }

  void resume_and_run(os::Pid pid, u64 budget = 60000) {
    os::Process* p = machine_->kernel().find(pid);
    ASSERT_NE(p, nullptr);
    p->state = os::ProcState::kReady;
    machine_->run(budget);
  }

  VAddr src_ = 0;
  std::unique_ptr<os::Machine> machine_;
  std::unique_ptr<FarosEngine> engine_;
};

RuleSpec rule_of(const char* id, Trigger t,
                 std::initializer_list<const char*> preds,
                 RuleAction action = RuleAction::kFlag) {
  RuleSpec r;
  r.id = id;
  r.trigger = t;
  for (const char* p : preds) r.when.push_back(parse_predicate(p).value());
  r.action = action;
  return r;
}

TEST_F(TriggerTest, SyscallArgTriggerSeesTaintedArguments) {
  init(quiet_with_rules(
      {rule_of("tainted-syscall", Trigger::kSyscallArg,
               {"target has-type:netflow"})}));
  os::Pid pid = spawn_suspended("sysarg.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R3, "src");
    a.ld32(Reg::R1, Reg::R3, 0);  // tainted bytes into arg register r1
    emit_sys(a, Sys::kNtYield);   // syscall with a tainted argument
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
    a.align(8);
    a.label("src");
    a.zeros(8);
  });
  os::Process* p = machine_->kernel().find(pid);
  taint_packet(*p, src_, 4);
  resume_and_run(pid);
  ASSERT_FALSE(engine_->findings().empty());
  EXPECT_EQ(engine_->findings()[0].policy, "tainted-syscall");
  EXPECT_TRUE(engine_->flagged());
  // One finding despite the spin loop issuing more (untainted) syscalls:
  // r1 keeps its taint only until the site dedup kicks in anyway.
  const RuleEngine& re = engine_->rule_engine();
  ASSERT_EQ(re.rule_count(), 1u);
  EXPECT_GE(re.rule_stats(0).hits, 1u);
  // Observability: syscall-arg evals surfaced on their own counter.
  auto snap = engine_->metrics_snapshot();
  EXPECT_GE(snap[obs::Ctr::kRuleEvalsSyscallArg], 1u);
  EXPECT_GE(snap[obs::Ctr::kRuleMatches], 1u);
}

TEST_F(TriggerTest, TaintedFetchTriggerSeesTaintedCode) {
  init(quiet_with_rules(
      {rule_of("net-code-exec", Trigger::kTaintedFetch,
               {"fetch has-type:netflow"})}));
  os::Pid pid = spawn_suspended("fetch.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, 1);
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
  });
  os::Process* p = machine_->kernel().find(pid);
  // Taint the first instruction's own bytes, as if patched from a packet.
  taint_packet(*p, kUserImageBase, vm::kInsnSize);
  resume_and_run(pid);
  ASSERT_FALSE(engine_->findings().empty());
  EXPECT_EQ(engine_->findings()[0].policy, "net-code-exec");
  EXPECT_EQ(engine_->findings()[0].insn_va, kUserImageBase);
}

TEST_F(TriggerTest, TaintedStoreTriggerAndPageFlagPredicate) {
  init(quiet_with_rules(
      {rule_of("tainted-write", Trigger::kTaintedStore,
               {"value has-type:netflow"}),
       rule_of("tainted-write-to-code", Trigger::kTaintedStore,
               {"value has-type:netflow", "page-flag:exec"})}));
  os::Pid pid = spawn_suspended("store.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    // A non-executable destination: image pages are mapped executable, so
    // the page-flag control needs a plain RW heap allocation.
    attacks::emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
    a.mov(Reg::R3, Reg::R0);
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R2, Reg::R1, 0);
    a.st32(Reg::R3, 0, Reg::R2);  // tainted store into the RW page
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
    a.align(8);
    a.label("src");
    a.zeros(16);
  });
  os::Process* p = machine_->kernel().find(pid);
  taint_packet(*p, src_, 4);
  resume_and_run(pid);
  ASSERT_EQ(engine_->findings().size(), 1u);
  EXPECT_EQ(engine_->findings()[0].policy, "tainted-write");
  const RuleEngine& re = engine_->rule_engine();
  ASSERT_EQ(re.rule_count(), 2u);
  EXPECT_GE(re.rule_stats(0).hits, 1u);
  // Same evaluation, but the data page is not executable.
  EXPECT_EQ(re.rule_stats(1).hits, 0u);
  EXPECT_EQ(re.rule_stats(0).evals, re.rule_stats(1).evals);
}

// ---------------------------------------------------------------------------
// Multi-stage C2: invisible to the built-ins, caught by one config rule.

TEST(MultiStageC2, CleanUnderDefaultRuleset) {
  attacks::MultiStageC2Scenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_FALSE(run.value().flagged);
  EXPECT_TRUE(run.value().findings.empty());
}

TEST(MultiStageC2, FlaggedByDistinctNetflowsRule) {
  auto rules = builtin_rules(true, true, false);
  rules.push_back(rule_of("multi-stage-c2", Trigger::kTaintedLoad,
                          {"fetch distinct-netflows>=2"}));
  attacks::MultiStageC2Scenario sc;
  auto run = attacks::analyze(sc, with_rules(rules));
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged);
  ASSERT_FALSE(run.value().findings.empty());
  bool hit = false;
  for (const Finding& f : run.value().findings) {
    if (f.policy != "multi-stage-c2") continue;
    hit = true;
    // The flagging instruction itself was decoded from two flows.
    EXPECT_GE(run.value().engine_stats.tainted_fetches, 1u);
  }
  EXPECT_TRUE(hit);
}

// ---------------------------------------------------------------------------
// Farm: policy file vs built-ins, byte for byte, with per-rule counts.

TEST(FarmRules, PolicyFileRulesetMatchesBuiltinsByteForByte) {
  std::vector<farm::JobSpec> jobs;
  for (auto& e : attacks::injection_corpus()) {
    farm::JobSpec spec;
    spec.name = e.name;
    spec.category = e.category;
    spec.expect_flagged = e.expect_flagged;
    spec.make = e.make;
    jobs.push_back(std::move(spec));
  }
  auto jobs2 = jobs;

  farm::FarmConfig cfg1;
  cfg1.workers = 2;
  farm::Farm f1(cfg1);
  auto rep1 = f1.run(std::move(jobs));

  farm::FarmConfig cfg2;
  cfg2.workers = 2;
  auto parsed = parse_ruleset_json(ruleset_json(builtin_rules(true, true,
                                                              false)));
  ASSERT_TRUE(parsed.ok());
  cfg2.engine_opts.rules = parsed.value();
  farm::Farm f2(cfg2);
  auto rep2 = f2.run(std::move(jobs2));

  EXPECT_EQ(farm::results_jsonl(rep1), farm::results_jsonl(rep2));
  for (const auto& r : rep1.results) {
    ASSERT_EQ(r.status, farm::JobStatus::kOk) << r.name;
    ASSERT_EQ(r.rules.size(), 2u) << r.name;
    EXPECT_EQ(r.rules[0].id, "netflow-export-confluence");
    EXPECT_EQ(r.rules[1].id, "cross-process-export-confluence");
    EXPECT_GT(r.rules[0].evals, 0u) << r.name;
    // Per-rule counts made it into the JSONL record.
    EXPECT_NE(farm::job_jsonl(r).find("\"rules\":[{\"id\":"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace faros::core
