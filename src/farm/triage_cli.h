// faros_triage command-line surface, as a library.
//
// Lives in src/farm (not tools/) so tests can exercise the exact parser
// the shipped binary uses: every boolean feature is a `--X` / `--no-X`
// pair over an explicit flag table, and render_triage_cli() serialises a
// parsed configuration back into canonical argv form — the round-trip
// property (parse ∘ render ∘ parse = parse) is pinned by test_farm.
#pragma once

#include <string>
#include <vector>

#include "farm/farm.h"

namespace faros::farm {

/// Everything the faros_triage binary needs after argv is parsed.
struct TriageCliOptions {
  FarmConfig farm;

  // Corpus selection.
  std::string filter;
  std::string category;
  u64 max_jobs = 0;
  u64 budget = 0;

  // Output.
  std::string out_path;
  std::string metrics_path;
  bool quiet = false;

  // Policy files (--policies a.json,b.json): the first replaces the
  // built-in ruleset; the rest run as extra policy sets on the same pass
  // (FarmConfig::extra_policies) once loaded by load_policy_files().
  std::vector<std::string> policy_paths;

  // Modes that short-circuit the run.
  bool list_only = false;
  bool list_policies = false;
  bool help = false;
};

struct TriageCliResult {
  TriageCliOptions opts;
  std::string error;  // non-empty = parse failed (message for stderr)
  bool ok() const { return error.empty(); }
};

/// Parses an argv tail (excluding argv[0]). Never exits, never prints —
/// callers decide what to do with `error` / `opts.help`.
TriageCliResult parse_triage_cli(const std::vector<std::string>& args);

/// Grouped usage text for --help.
std::string triage_usage();

/// Canonical argv form of `o`: every boolean feature appears as its
/// explicit `--X`/`--no-X` spelling, value flags appear when set. Feeding
/// the result back through parse_triage_cli() reproduces `o`'s
/// farm-relevant configuration exactly.
std::vector<std::string> render_triage_cli(const TriageCliOptions& o);

/// Loads the files named by `policy_paths` into `o.farm`: the first file
/// replaces engine_opts.rules, each further file appends a PolicySet named
/// after the file's basename stem. Returns an error message, or "" on
/// success (also when there is nothing to load).
std::string load_policy_files(TriageCliOptions& o);

}  // namespace faros::farm
