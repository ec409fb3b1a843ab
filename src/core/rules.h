// Declarative confluence-rule engine: the paper's "per security policy"
// invariants as data instead of hardcoded C++ paths. A RuleSpec names a
// trigger point in the DIFT hot path, a conjunction of predicates over the
// provenance visible at that point, and an action; the engine compiles the
// specs into per-trigger lists once and the hot path pays a single
// empty-list check per trigger it reaches.
//
// Triggers (where in engine.cpp dispatch can fire):
//  * tainted-load     — a load read at least one tainted byte
//  * tainted-store    — a store wrote a tainted value (or tainted address
//                       dependency, under propagate_address_deps)
//  * exec-page-write  — a store wrote a tainted value into an executable
//                       page (the staging-time early-warning site)
//  * tainted-fetch    — the executing instruction's own bytes are tainted
//  * syscall-arg      — a syscall issued with tainted argument registers
//
// Predicates (conjunction; subject is fetch / target / value provenance):
//  * "<subject> has-type:<netflow|process|file|export-table>"
//  * "<subject> process-count>=N"
//  * "<subject> distinct-netflows>=N"
//  * "page-flag:exec"
//
// Threshold caveat: the per-list distinct-process and distinct-netflow
// counts come from ProvStore metadata that saturates at 255
// (ProvStore::process_count / netflow_count). A rule with N > 255 can
// therefore never fire, and exactly-255 cannot be distinguished from
// more-than-255; keep thresholds at 255 or below (pinned by test).
//
// Actions: flag (normal finding), warn (recorded, never flips the
// verdict), suppress (a matching suppress rule cancels every flag/warn
// match of the same trigger evaluation — an analyst-authored,
// provenance-conditional exception, like the whitelist but data-driven).
//
// The three historical built-ins are expressed as specs (builtin_rules());
// default-constructed Options reproduce their behaviour exactly.
#pragma once

#include <array>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/provenance.h"
#include "obs/obs.h"

namespace faros::core {

enum class Trigger : u8 {
  kTaintedLoad = 0,
  kTaintedStore,
  kExecPageWrite,
  kTaintedFetch,
  kSyscallArg,
};
inline constexpr u32 kTriggerCount = 5;

const char* trigger_name(Trigger t);
Result<Trigger> parse_trigger(std::string_view s);

/// Which provenance list a predicate inspects at the trigger point.
enum class Subject : u8 {
  kFetch = 0,  // the executing instruction's bytes
  kTarget,     // the bytes the access touched (pre-write union for stores)
  kValue,      // the value being moved (store: written value; load: result)
};

enum class RuleAction : u8 { kFlag = 0, kWarn, kSuppress };

const char* action_name(RuleAction a);
Result<RuleAction> parse_action(std::string_view s);

struct Predicate {
  enum class Kind : u8 {
    kHasType = 0,         // subject list contains a tag of `type`
    kProcessCountGe,      // >= n distinct process tags on subject
    kDistinctNetflowsGe,  // >= n distinct netflow tags on subject
    kPageFlagExec,        // the touched page is executable (no subject)
  };

  Kind kind = Kind::kHasType;
  Subject subject = Subject::kTarget;
  TagType type = TagType::kNetflow;  // kHasType only
  u32 n = 0;                         // threshold kinds only

  bool operator==(const Predicate&) const = default;
};

/// Renders a predicate in the grammar above ("fetch has-type:netflow").
std::string predicate_str(const Predicate& p);
Result<Predicate> parse_predicate(std::string_view s);

struct RuleSpec {
  std::string id;  // becomes Finding::policy on a match
  Trigger trigger = Trigger::kTaintedLoad;
  std::vector<Predicate> when;  // conjunction; empty = always matches
  RuleAction action = RuleAction::kFlag;

  bool operator==(const RuleSpec&) const = default;
};

/// The built-in rules, in the historical evaluation order. These are
/// exactly the paper's invariants: netflow-export-confluence,
/// cross-process-export-confluence, and the optional tainted-code-write
/// early warning (off by default: it fires at staging time, before the
/// payload runs, but flags every JIT host). The defaults are the engine's
/// ruleset when Options::rules is empty.
std::vector<RuleSpec> builtin_rules(bool netflow_export = true,
                                    bool cross_process_export = true,
                                    bool tainted_code_write = false);

/// Parses a policy file: {"rules":[{"id":...,"trigger":...,"action":...,
/// "when":[...]}]}. "action" defaults to "flag", "when" to []. Unknown
/// keys, duplicate ids and grammar errors are hard errors naming the rule.
Result<std::vector<RuleSpec>> parse_ruleset_json(std::string_view text);

/// Serialises a ruleset back into the policy-file schema (deterministic:
/// the same specs always produce the same bytes). parse(serialize(x)) == x.
std::string ruleset_json(const std::vector<RuleSpec>& rules);

/// Everything a trigger site hands to dispatch. Lists not meaningful at a
/// trigger stay kEmptyProv (e.g. value at tainted-fetch).
struct RuleInputs {
  ProvListId fetch = kEmptyProv;
  ProvListId target = kEmptyProv;
  ProvListId value = kEmptyProv;
  bool page_exec = false;
};

struct RuleStats {
  u64 evals = 0;
  u64 hits = 0;
};

/// Compiled rule set. Built once per engine; the hot path asks has_rules()
/// (one empty-vector test) before computing any trigger inputs, so
/// triggers with no rules bound cost nothing beyond that branch.
class RuleEngine {
 public:
  RuleEngine() = default;

  /// Replaces the rules.
  void configure(const std::vector<RuleSpec>& specs);

  /// Binds the per-trigger eval counters (null sink unbinds).
  void bind_obs(obs::MetricSink* sink);

  bool has_rules(Trigger t) const {
    return !index_[static_cast<u32>(t)].empty();
  }

  /// True when any rule on `t` inspects the value subject — lets trigger
  /// sites skip computing it (a ProvStore merge) when nothing will look.
  bool needs_value(Trigger t) const {
    return needs_value_[static_cast<u32>(t)];
  }
  /// True when any rule on `t` has a page-flag:exec predicate (the
  /// exec-page-write trigger implies it and never needs the query).
  bool needs_page_flags(Trigger t) const {
    return needs_page_flags_[static_cast<u32>(t)];
  }

  /// Evaluates every rule bound to `t` against `in`. Indices of matched
  /// flag/warn rules are appended to `matched` (cleared on entry) unless a
  /// suppress rule also matched, in which case `matched` stays empty.
  /// Returns the number of rules evaluated (for EngineStats::policy_evals).
  u32 dispatch(Trigger t, const ProvStore& store, const RuleInputs& in,
               std::vector<u32>& matched);

  size_t rule_count() const { return rules_.size(); }
  const std::string& rule_id(u32 idx) const { return rules_[idx].spec.id; }
  RuleAction rule_action(u32 idx) const { return rules_[idx].spec.action; }
  const RuleStats& rule_stats(u32 idx) const { return rules_[idx].stats; }

 private:
  struct CompiledRule {
    RuleSpec spec;
    RuleStats stats;
  };

  bool matches(const CompiledRule& r, const ProvStore& store,
               const RuleInputs& in) const;
  void rebuild_index();

  std::vector<CompiledRule> rules_;
  std::array<std::vector<u32>, kTriggerCount> index_;
  std::array<bool, kTriggerCount> needs_value_{};
  std::array<bool, kTriggerCount> needs_page_flags_{};
  std::array<obs::Counter, kTriggerCount> eval_ctr_;
  obs::Counter match_ctr_;
};

}  // namespace faros::core
