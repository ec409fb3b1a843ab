#include "farm/triage_cli.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>

#include "common/strings.h"
#include "core/rules.h"

namespace faros::farm {

namespace {

// Every boolean feature goes through this table, which is what guarantees
// the `--X` / `--no-X` pairing: the parser derives both spellings from
// `name`, and render_triage_cli() walks the same table, so a flag cannot
// gain a positive form without its negative (or vice versa).
struct BoolFlag {
  const char* name;  // "block-cache" → --block-cache / --no-block-cache
  const char* help;
  void (*set)(TriageCliOptions&, bool);
  bool (*get)(const TriageCliOptions&);
};

constexpr BoolFlag kBoolFlags[] = {
    {"block-cache",
     "per-CR3 block-translation cache, and with it the engine's\n"
     "                   elision fast path (default: on; byte-identical\n"
     "                   verdicts; CI pins this)",
     [](TriageCliOptions& o, bool v) { o.farm.machine.kernel.block_cache = v; },
     [](const TriageCliOptions& o) {
       return o.farm.machine.kernel.block_cache;
     }},
    {"quiet", "suppress the per-job console lines (default: off)",
     [](TriageCliOptions& o, bool v) { o.quiet = v; },
     [](const TriageCliOptions& o) { return o.quiet; }},
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// "dir/cross_proc.json" → "cross_proc" — the PolicySet label carried into
/// every JobResult::PolicyRun and the policy_runs JSONL field.
std::string path_stem(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  size_t base = slash == std::string::npos ? 0 : slash + 1;
  size_t dot = path.find_last_of('.');
  if (dot == std::string::npos || dot <= base) dot = path.size();
  return path.substr(base, dot - base);
}

}  // namespace

TriageCliResult parse_triage_cli(const std::vector<std::string>& args) {
  TriageCliResult r;
  TriageCliOptions& o = r.opts;
  if (const char* env = std::getenv("FAROS_METRICS_JSON")) {
    o.metrics_path = env;
  }

  u64 workers = 0;
  for (size_t i = 0; i < args.size() && r.ok(); ++i) {
    const std::string& arg = args[i];
    auto next_str = [&](std::string* out) {
      if (i + 1 >= args.size()) {
        r.error = arg + " needs a value";
        return;
      }
      *out = args[++i];
    };
    auto next_u64 = [&](u64* out) {
      if (i + 1 >= args.size() || !parse_u64(args[i + 1], out)) {
        r.error = arg + " needs a number";
        return;
      }
      ++i;
    };

    if (arg == "--help" || arg == "-h") { o.help = true; continue; }
    if (arg == "--list") { o.list_only = true; continue; }
    if (arg == "--list-policies") { o.list_policies = true; continue; }
    if (arg == "--workers") {
      next_u64(&workers);
      // Truncating to u32 would turn 2^32 into 0 (= hardware threads).
      if (r.ok() && workers > std::numeric_limits<u32>::max()) {
        r.error = "--workers is out of range";
      }
      continue;
    }
    if (arg == "--jobs") { next_u64(&o.max_jobs); continue; }
    if (arg == "--timeout-ms") { next_u64(&o.farm.timeout_ms); continue; }
    if (arg == "--budget") { next_u64(&o.budget); continue; }
    if (arg == "--filter") { next_str(&o.filter); continue; }
    if (arg == "--category") { next_str(&o.category); continue; }
    if (arg == "--out") { next_str(&o.out_path); continue; }
    if (arg == "--metrics") { next_str(&o.metrics_path); continue; }
    if (arg == "--graph-out") { next_str(&o.farm.graph_out); continue; }
    if (arg == "--policies") {
      std::string csv;
      next_str(&csv);
      if (r.ok()) o.policy_paths = split_csv(csv);
      // Extra sets are named by stem, and policy_runs consumers key on it.
      std::map<std::string, std::string> paths_by_stem;
      for (size_t k = 1; k < o.policy_paths.size() && r.ok(); ++k) {
        const std::string& p = o.policy_paths[k];
        auto [it, fresh] = paths_by_stem.emplace(path_stem(p), p);
        if (!fresh) {
          r.error = "--policies: '" + it->second + "' and '" + p +
                    "' share the set name '" + it->first + "'";
        }
      }
      continue;
    }

    bool matched = false;
    for (const BoolFlag& f : kBoolFlags) {
      if (arg == std::string("--") + f.name) {
        f.set(o, true);
        matched = true;
      } else if (arg == std::string("--no-") + f.name) {
        f.set(o, false);
        matched = true;
      }
      if (matched) break;
    }
    if (!matched) r.error = "unknown option '" + arg + "'";
  }
  if (r.ok()) o.farm.workers = static_cast<u32>(workers);
  return r;
}

std::string triage_usage() {
  std::string out =
      "usage: faros_triage [options]\n"
      "\n"
      "corpus selection:\n"
      "  --jobs N         run at most N jobs (default: all)\n"
      "  --filter STR     only jobs whose name contains STR\n"
      "  --category STR   only jobs in this category\n"
      "                   (injection | jit | malware | benign | policy)\n"
      "  --list           print the job catalogue and exit\n"
      "\n"
      "execution:\n"
      "  --workers N      worker threads (default: hardware)\n"
      "  --timeout-ms N   per-job wall-clock deadline (default 60000;\n"
      "                   0 = none)\n"
      "  --budget N       per-job instruction budget override\n"
      "\n"
      "policies:\n"
      "  --policies A[,B,...]\n"
      "                   load confluence rulesets from JSON policy files.\n"
      "                   The first replaces the built-ins; each further\n"
      "                   file is evaluated on the same analyzed run (one\n"
      "                   verdict per set in the policy_runs JSONL field,\n"
      "                   named by the file's stem, which must be unique).\n"
      "                   Also adds the policy-corpus jobs.\n"
      "  --list-policies  print the effective primary ruleset as\n"
      "                   policy-file JSON and exit\n"
      "\n"
      "output:\n"
      "  --out PATH       write JSONL records + summary to PATH\n"
      "  --metrics PATH   write per-job obs counter JSONL to PATH\n"
      "                   (or set FAROS_METRICS_JSON)\n"
      "  --graph-out DIR  write one provenance-graph artifact per job to\n"
      "                   DIR/<job>.fpg (src/graph format; byte-identical\n"
      "                   for any --workers)\n"
      "\n"
      "features (every switch has a paired --X / --no-X form):\n";
  for (const BoolFlag& f : kBoolFlags) {
    out += "  --";
    out += f.name;
    out += " / --no-";
    out += f.name;
    out += "\n                   ";
    out += f.help;
    out += "\n";
  }
  return out;
}

std::vector<std::string> render_triage_cli(const TriageCliOptions& o) {
  const TriageCliOptions def;
  std::vector<std::string> out;
  auto num = [](u64 v) { return std::to_string(v); };

  if (o.max_jobs) { out.push_back("--jobs"); out.push_back(num(o.max_jobs)); }
  if (!o.filter.empty()) { out.push_back("--filter"); out.push_back(o.filter); }
  if (!o.category.empty()) {
    out.push_back("--category");
    out.push_back(o.category);
  }
  if (o.farm.workers) {
    out.push_back("--workers");
    out.push_back(num(o.farm.workers));
  }
  if (o.farm.timeout_ms != def.farm.timeout_ms) {
    out.push_back("--timeout-ms");
    out.push_back(num(o.farm.timeout_ms));
  }
  if (o.budget) { out.push_back("--budget"); out.push_back(num(o.budget)); }
  if (!o.policy_paths.empty()) {
    std::string csv;
    for (size_t i = 0; i < o.policy_paths.size(); ++i) {
      if (i) csv += ',';
      csv += o.policy_paths[i];
    }
    out.push_back("--policies");
    out.push_back(csv);
  }
  if (!o.out_path.empty()) { out.push_back("--out"); out.push_back(o.out_path); }
  if (!o.metrics_path.empty()) {
    out.push_back("--metrics");
    out.push_back(o.metrics_path);
  }
  if (!o.farm.graph_out.empty()) {
    out.push_back("--graph-out");
    out.push_back(o.farm.graph_out);
  }
  // Boolean features are always rendered explicitly — the canonical argv is
  // self-describing even if a default flips later.
  for (const BoolFlag& f : kBoolFlags) {
    out.push_back(std::string(f.get(o) ? "--" : "--no-") + f.name);
  }
  if (o.list_only) out.push_back("--list");
  if (o.list_policies) out.push_back("--list-policies");
  return out;
}

std::string load_policy_files(TriageCliOptions& o) {
  for (size_t i = 0; i < o.policy_paths.size(); ++i) {
    const std::string& path = o.policy_paths[i];
    FILE* pf = std::fopen(path.c_str(), "rb");
    if (!pf) return "cannot open '" + path + "'";
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), pf)) > 0) text.append(buf, n);
    std::fclose(pf);
    auto rules = core::parse_ruleset_json(text);
    if (!rules.ok()) return path + ": " + rules.error().message;
    if (i == 0) {
      o.farm.engine_opts.rules = std::move(rules).take();
    } else {
      o.farm.extra_policies.push_back(
          PolicySet{path_stem(path), std::move(rules).take()});
    }
  }
  return "";
}

}  // namespace faros::farm
