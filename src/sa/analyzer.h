// Top of the static-analysis stack (src/sa): drives CFG recovery and the
// dataflow pass to a fixpoint (each pass may resolve more indirect-branch
// targets, which can expose more code), runs the lint rules, and folds the
// results into a per-image and per-program report with a deterministic
// JSONL serialisation — the zero-execution pre-triage stage in front of
// the farm's record/replay pipeline.
#pragma once

#include "obs/obs.h"
#include "sa/rules.h"
#include "sa/summary.h"

namespace faros::sa {

/// A program whose summed finding weight reaches this is "static flagged":
/// one alert, or several distinct warn-level shapes. The static verdict is
/// an analyst oracle next to the dynamic one, never a replacement.
inline constexpr u32 kStaticRiskThreshold = 10;

struct SaOptions {
  /// CFG <-> dataflow rounds; each round may resolve further indirect
  /// targets. Corpus programs converge in 2.
  u32 max_passes = 4;
  /// Summed finding weight at which a program counts as static-flagged
  /// (faros_lint --risk-threshold).
  u32 risk_threshold = kStaticRiskThreshold;
  /// Counter sink (sa_* counters); null = no metrics.
  obs::MetricSink* metrics = nullptr;
};

/// One proven-elidable runtime block: starting at `va`, the exact
/// instruction sequence the block-translation cache would decode there
/// (`insns` of them, content-stamped by vm::insn_seq_hash) runs only
/// vm::taint_inert opcodes plus kDivu sites whose divisor is a non-zero
/// constant re-derivable from *any* entry state — so the engine may run it
/// uninstrumented under the usual clean-bank guard even though the plain
/// per-opcode inert bit says no.
struct ElideHint {
  u32 va = 0;
  u32 insns = 0;
  u64 hash = 0;
  bool operator==(const ElideHint&) const = default;
};

struct ImageReport {
  std::string image;
  u32 base = 0, entry = 0, size = 0;
  u32 blocks = 0, insns = 0;
  /// Blocks (and their instruction total) whose every opcode is
  /// vm::taint_inert — what the runtime block-translation cache
  /// (vm/btcache.h) may run uninstrumented without any summary facts,
  /// save blocks ending in a kSyscall, which the runtime also offers.
  u32 inert_blocks = 0, inert_insns = 0;
  /// Blocks provable inert with summary-level facts: every instruction is
  /// taint_inert *or* a kDivu whose divisor is a proven non-zero constant
  /// from the block's own prefix (context-free, so the proof holds for
  /// any runtime entry). Superset of inert_blocks; the delta is what the
  /// elide hints export to the engine.
  u32 summary_inert_blocks = 0, summary_inert_insns = 0;
  u32 functions = 0;  // call-graph functions discovered
  u32 indirect_sites = 0, resolved_indirects = 0;
  u32 dead_regions = 0, invalid_sites = 0;
  u32 passes = 0;  // analysis rounds until the indirect fixpoint
  /// False when max_passes ran out while indirect resolution was still
  /// making progress — the report may be based on an incomplete CFG.
  bool converged = true;
  std::vector<SaFinding> findings;
  u32 risk = 0;  // summed severity weights

  std::vector<ElideHint> elide_hints;  // ascending va
  SummaryTable summaries;              // final-pass function summaries
  Cfg cfg;  // final-pass CFG, for tooling and the golden tests
};

ImageReport analyze_image(const os::Image& img, const SaOptions& opts = {});

/// Aggregate over every image of one corpus program (a farm JobSpec maps
/// to one of these).
struct ProgramReport {
  std::string name;
  u32 images = 0, blocks = 0, insns = 0, findings = 0, risk = 0;
  u32 risk_threshold = kStaticRiskThreshold;  // from SaOptions
  std::vector<std::string> rules;  // sorted unique rule names that fired
  std::vector<ImageReport> per_image;

  bool flagged() const { return risk >= risk_threshold; }
};

ProgramReport analyze_images(const std::string& name,
                             const std::vector<os::Image>& images,
                             const SaOptions& opts = {});

// --- deterministic JSONL (faros_lint output; same contract as
// farm/results.h: a pure function of the image bytes) ---

/// {"type":"finding","program":...,"image":...,"rule":...,...}
std::string finding_jsonl(const std::string& program,
                          const std::string& image, const SaFinding& f);

/// {"type":"image","program":...,"image":...,"blocks":...,...}
std::string image_jsonl(const std::string& program, const ImageReport& r);

/// {"type":"program","name":...,"category":...,"risk":...,...}
std::string program_jsonl(const std::string& category,
                          const ProgramReport& r);

/// Pre-rendered JSON array of the rule names, for embedding.
std::string rules_json(const std::vector<std::string>& rules);

}  // namespace faros::sa
