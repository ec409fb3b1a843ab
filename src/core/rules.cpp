#include "core/rules.h"

#include "common/json.h"

namespace faros::core {

namespace {

/// Tag-type spelling in the predicate grammar (kebab-case, unlike the
/// report-facing tag_type_name()).
const char* type_token(TagType t) {
  switch (t) {
    case TagType::kNetflow: return "netflow";
    case TagType::kProcess: return "process";
    case TagType::kFile: return "file";
    case TagType::kExportTable: return "export-table";
  }
  return "?";
}

Result<TagType> parse_type_token(std::string_view s) {
  if (s == "netflow") return TagType::kNetflow;
  if (s == "process") return TagType::kProcess;
  if (s == "file") return TagType::kFile;
  if (s == "export-table") return TagType::kExportTable;
  return Err<TagType>("unknown tag type '" + std::string(s) + "'");
}

const char* subject_token(Subject s) {
  switch (s) {
    case Subject::kFetch: return "fetch";
    case Subject::kTarget: return "target";
    case Subject::kValue: return "value";
  }
  return "?";
}

Result<Subject> parse_subject_token(std::string_view s) {
  if (s == "fetch") return Subject::kFetch;
  if (s == "target") return Subject::kTarget;
  if (s == "value") return Subject::kValue;
  return Err<Subject>("unknown subject '" + std::string(s) + "'");
}

Result<u32> parse_threshold(std::string_view s) {
  if (s.empty() || s.size() > 9) {
    return Err<u32>("bad threshold '" + std::string(s) + "'");
  }
  u32 n = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Err<u32>("bad threshold '" + std::string(s) + "'");
    }
    n = n * 10 + static_cast<u32>(c - '0');
  }
  return n;
}

}  // namespace

const char* trigger_name(Trigger t) {
  switch (t) {
    case Trigger::kTaintedLoad: return "tainted-load";
    case Trigger::kTaintedStore: return "tainted-store";
    case Trigger::kExecPageWrite: return "exec-page-write";
    case Trigger::kTaintedFetch: return "tainted-fetch";
    case Trigger::kSyscallArg: return "syscall-arg";
  }
  return "?";
}

Result<Trigger> parse_trigger(std::string_view s) {
  if (s == "tainted-load") return Trigger::kTaintedLoad;
  if (s == "tainted-store") return Trigger::kTaintedStore;
  if (s == "exec-page-write") return Trigger::kExecPageWrite;
  if (s == "tainted-fetch") return Trigger::kTaintedFetch;
  if (s == "syscall-arg") return Trigger::kSyscallArg;
  return Err<Trigger>("unknown trigger '" + std::string(s) + "'");
}

const char* action_name(RuleAction a) {
  switch (a) {
    case RuleAction::kFlag: return "flag";
    case RuleAction::kWarn: return "warn";
    case RuleAction::kSuppress: return "suppress";
  }
  return "?";
}

Result<RuleAction> parse_action(std::string_view s) {
  if (s == "flag") return RuleAction::kFlag;
  if (s == "warn") return RuleAction::kWarn;
  if (s == "suppress") return RuleAction::kSuppress;
  return Err<RuleAction>("unknown action '" + std::string(s) + "'");
}

std::string predicate_str(const Predicate& p) {
  std::string out;
  switch (p.kind) {
    case Predicate::Kind::kHasType:
      out = std::string(subject_token(p.subject)) +
            " has-type:" + type_token(p.type);
      break;
    case Predicate::Kind::kProcessCountGe:
      out = std::string(subject_token(p.subject)) +
            " process-count>=" + std::to_string(p.n);
      break;
    case Predicate::Kind::kDistinctNetflowsGe:
      out = std::string(subject_token(p.subject)) +
            " distinct-netflows>=" + std::to_string(p.n);
      break;
    case Predicate::Kind::kPageFlagExec: out = "page-flag:exec"; break;
  }
  return out;
}

Result<Predicate> parse_predicate(std::string_view s) {
  Predicate p;
  if (s == "page-flag:exec") {
    p.kind = Predicate::Kind::kPageFlagExec;
    return p;
  }
  size_t space = s.find(' ');
  if (space == std::string_view::npos) {
    return Err<Predicate>("bad predicate '" + std::string(s) +
                          "' (expected '<subject> <check>')");
  }
  auto subject = parse_subject_token(s.substr(0, space));
  if (!subject.ok()) return Err<Predicate>(subject.error().message);
  p.subject = subject.value();
  std::string_view check = s.substr(space + 1);
  if (check.rfind("has-type:", 0) == 0) {
    auto type = parse_type_token(check.substr(9));
    if (!type.ok()) return Err<Predicate>(type.error().message);
    p.kind = Predicate::Kind::kHasType;
    p.type = type.value();
    return p;
  }
  if (check.rfind("process-count>=", 0) == 0) {
    auto n = parse_threshold(check.substr(15));
    if (!n.ok()) return Err<Predicate>(n.error().message);
    p.kind = Predicate::Kind::kProcessCountGe;
    p.n = n.value();
    return p;
  }
  if (check.rfind("distinct-netflows>=", 0) == 0) {
    auto n = parse_threshold(check.substr(19));
    if (!n.ok()) return Err<Predicate>(n.error().message);
    p.kind = Predicate::Kind::kDistinctNetflowsGe;
    p.n = n.value();
    return p;
  }
  return Err<Predicate>("unknown predicate check '" + std::string(check) +
                        "'");
}

std::vector<RuleSpec> builtin_rules(bool netflow_export,
                                    bool cross_process_export,
                                    bool tainted_code_write) {
  std::vector<RuleSpec> out;
  if (netflow_export) {
    RuleSpec r;
    r.id = "netflow-export-confluence";
    r.trigger = Trigger::kTaintedLoad;
    r.when = {
        Predicate{Predicate::Kind::kHasType, Subject::kTarget,
                  TagType::kExportTable, 0},
        Predicate{Predicate::Kind::kHasType, Subject::kFetch,
                  TagType::kNetflow, 0},
    };
    out.push_back(std::move(r));
  }
  if (cross_process_export) {
    RuleSpec r;
    r.id = "cross-process-export-confluence";
    r.trigger = Trigger::kTaintedLoad;
    r.when = {
        Predicate{Predicate::Kind::kHasType, Subject::kTarget,
                  TagType::kExportTable, 0},
        Predicate{Predicate::Kind::kProcessCountGe, Subject::kFetch,
                  TagType::kNetflow, 2},
    };
    out.push_back(std::move(r));
  }
  if (tainted_code_write) {
    RuleSpec r;
    r.id = "tainted-code-write";
    r.trigger = Trigger::kExecPageWrite;
    r.when = {
        Predicate{Predicate::Kind::kHasType, Subject::kValue,
                  TagType::kNetflow, 0},
    };
    out.push_back(std::move(r));
  }
  return out;
}

Result<std::vector<RuleSpec>> parse_ruleset_json(std::string_view text) {
  using Rules = std::vector<RuleSpec>;
  auto doc = json_parse(text);
  if (!doc.ok()) {
    return Err<Rules>("policy file: " + doc.error().message);
  }
  const JsonValue& root = doc.value();
  if (!root.is_object()) {
    return Err<Rules>("policy file: top level must be an object");
  }
  for (const auto& [key, _] : root.members) {
    if (key != "rules") {
      return Err<Rules>("policy file: unknown top-level key '" + key + "'");
    }
  }
  const JsonValue* rules = root.get("rules");
  if (!rules || !rules->is_array()) {
    return Err<Rules>("policy file: missing \"rules\" array");
  }
  Rules out;
  for (size_t i = 0; i < rules->items.size(); ++i) {
    const JsonValue& jr = rules->items[i];
    std::string where = "rule #" + std::to_string(i);
    if (!jr.is_object()) return Err<Rules>(where + ": must be an object");
    RuleSpec spec;
    for (const auto& [key, val] : jr.members) {
      if (key == "id") {
        if (!val.is_string() || val.string.empty()) {
          return Err<Rules>(where + ": \"id\" must be a non-empty string");
        }
        spec.id = val.string;
      } else if (key == "trigger") {
        if (!val.is_string()) {
          return Err<Rules>(where + ": \"trigger\" must be a string");
        }
        auto t = parse_trigger(val.string);
        if (!t.ok()) return Err<Rules>(where + ": " + t.error().message);
        spec.trigger = t.value();
      } else if (key == "action") {
        if (!val.is_string()) {
          return Err<Rules>(where + ": \"action\" must be a string");
        }
        auto a = parse_action(val.string);
        if (!a.ok()) return Err<Rules>(where + ": " + a.error().message);
        spec.action = a.value();
      } else if (key == "when") {
        if (!val.is_array()) {
          return Err<Rules>(where + ": \"when\" must be an array");
        }
        for (const JsonValue& jp : val.items) {
          if (!jp.is_string()) {
            return Err<Rules>(where + ": predicates must be strings");
          }
          auto p = parse_predicate(jp.string);
          if (!p.ok()) return Err<Rules>(where + ": " + p.error().message);
          spec.when.push_back(p.value());
        }
      } else {
        return Err<Rules>(where + ": unknown key '" + key + "'");
      }
    }
    if (spec.id.empty()) return Err<Rules>(where + ": missing \"id\"");
    if (!jr.get("trigger")) return Err<Rules>(where + ": missing \"trigger\"");
    // Count predicates compare against ProvStore Meta fields, which are u8
    // and saturate at 255 (provenance.h): a threshold above that can never
    // be met, so the rule would load fine and silently never fire. Reject
    // at policy-load time, naming the rule.
    for (const Predicate& p : spec.when) {
      if ((p.kind == Predicate::Kind::kProcessCountGe ||
           p.kind == Predicate::Kind::kDistinctNetflowsGe) &&
          p.n > 255) {
        return Err<Rules>(where + ": rule '" + spec.id + "': threshold " +
                          std::to_string(p.n) + " in '" + predicate_str(p) +
                          "' exceeds 255 (counts saturate at 255, so the "
                          "predicate is unsatisfiable)");
      }
    }
    for (const RuleSpec& prev : out) {
      if (prev.id == spec.id) {
        return Err<Rules>(where + ": duplicate rule id '" + spec.id + "'");
      }
    }
    out.push_back(std::move(spec));
  }
  return out;
}

std::string ruleset_json(const std::vector<RuleSpec>& rules) {
  std::string arr = "[";
  for (size_t i = 0; i < rules.size(); ++i) {
    const RuleSpec& r = rules[i];
    if (i) arr += ',';
    JsonWriter w;
    w.field("id", r.id);
    w.field("trigger", trigger_name(r.trigger));
    w.field("action", action_name(r.action));
    std::string when = "[";
    for (size_t j = 0; j < r.when.size(); ++j) {
      if (j) when += ',';
      when += '"' + json_escape(predicate_str(r.when[j])) + '"';
    }
    when += ']';
    w.raw_field("when", when);
    arr += w.str();
  }
  arr += ']';
  JsonWriter top;
  top.raw_field("rules", arr);
  return top.str();
}

// ---------------------------------------------------------------------------

void RuleEngine::configure(const std::vector<RuleSpec>& specs) {
  std::vector<CompiledRule> kept;
  for (CompiledRule& r : rules_) {
    if (r.native) kept.push_back(std::move(r));
  }
  rules_.clear();
  for (const RuleSpec& s : specs) {
    CompiledRule r;
    r.spec = s;
    rules_.push_back(std::move(r));
  }
  for (CompiledRule& r : kept) rules_.push_back(std::move(r));
  rebuild_index();
}

void RuleEngine::add_native(std::unique_ptr<FlagPolicy> policy) {
  CompiledRule r;
  r.spec.id = policy->name();
  r.spec.trigger = Trigger::kTaintedLoad;
  r.spec.action = RuleAction::kFlag;
  r.native = std::move(policy);
  rules_.push_back(std::move(r));
  rebuild_index();
}

void RuleEngine::bind_obs(obs::MetricSink* sink) {
  eval_ctr_[static_cast<u32>(Trigger::kTaintedLoad)] = {
      sink, obs::Ctr::kRuleEvalsTaintedLoad};
  eval_ctr_[static_cast<u32>(Trigger::kTaintedStore)] = {
      sink, obs::Ctr::kRuleEvalsTaintedStore};
  eval_ctr_[static_cast<u32>(Trigger::kExecPageWrite)] = {
      sink, obs::Ctr::kRuleEvalsExecPageWrite};
  eval_ctr_[static_cast<u32>(Trigger::kTaintedFetch)] = {
      sink, obs::Ctr::kRuleEvalsTaintedFetch};
  eval_ctr_[static_cast<u32>(Trigger::kSyscallArg)] = {
      sink, obs::Ctr::kRuleEvalsSyscallArg};
  match_ctr_ = {sink, obs::Ctr::kRuleMatches};
}

void RuleEngine::rebuild_index() {
  for (auto& v : index_) v.clear();
  needs_value_.fill(false);
  needs_page_flags_.fill(false);
  for (u32 i = 0; i < rules_.size(); ++i) {
    const CompiledRule& r = rules_[i];
    u32 t = static_cast<u32>(r.spec.trigger);
    index_[t].push_back(i);
    if (r.native) continue;
    for (const Predicate& p : r.spec.when) {
      if (p.kind == Predicate::Kind::kPageFlagExec) {
        // exec-page-write implies the flag by construction.
        if (r.spec.trigger != Trigger::kExecPageWrite) {
          needs_page_flags_[t] = true;
        }
      } else if (p.subject == Subject::kValue) {
        needs_value_[t] = true;
      }
    }
  }
}

bool RuleEngine::matches(const CompiledRule& r, const ProvStore& store,
                         const RuleInputs& in) const {
  if (r.native) return r.native->matches(store, in.fetch, in.target);
  for (const Predicate& p : r.spec.when) {
    ProvListId subj = kEmptyProv;
    switch (p.subject) {
      case Subject::kFetch: subj = in.fetch; break;
      case Subject::kTarget: subj = in.target; break;
      case Subject::kValue: subj = in.value; break;
    }
    bool ok = false;
    switch (p.kind) {
      case Predicate::Kind::kHasType:
        ok = store.contains_type(subj, p.type);
        break;
      case Predicate::Kind::kProcessCountGe:
        ok = store.process_count(subj) >= p.n;
        break;
      case Predicate::Kind::kDistinctNetflowsGe:
        ok = store.netflow_count(subj) >= p.n;
        break;
      case Predicate::Kind::kPageFlagExec: ok = in.page_exec; break;
    }
    if (!ok) return false;
  }
  return true;
}

u32 RuleEngine::dispatch(Trigger t, const ProvStore& store,
                         const RuleInputs& in, std::vector<u32>& matched) {
  matched.clear();
  const std::vector<u32>& idx = index_[static_cast<u32>(t)];
  bool suppressed = false;
  for (u32 i : idx) {
    CompiledRule& r = rules_[i];
    ++r.stats.evals;
    if (!matches(r, store, in)) continue;
    ++r.stats.hits;
    match_ctr_.inc();
    if (r.spec.action == RuleAction::kSuppress) {
      suppressed = true;
    } else {
      matched.push_back(i);
    }
  }
  if (suppressed) matched.clear();
  eval_ctr_[static_cast<u32>(t)].inc(idx.size());
  return static_cast<u32>(idx.size());
}

}  // namespace faros::core
