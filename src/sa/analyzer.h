// Top of the static-analysis stack (src/sa): drives CFG recovery and the
// dataflow pass to a fixpoint (each pass may resolve more indirect-branch
// targets, which can expose more code) with bottom-up function summaries
// modelling call sites, and folds the result into a per-image and
// per-program report.
#pragma once

#include <string>
#include <vector>

#include "sa/summary.h"

namespace faros::sa {

struct SaOptions {
  /// CFG <-> dataflow rounds; each round may resolve further indirect
  /// targets. Corpus programs converge in 2.
  u32 max_passes = 4;
};

/// No product reader; goes with triagebench's traced-pass rewrite (ROADMAP).
struct ElideHint {
  u32 va = 0;
  u32 insns = 0;
  u64 hash = 0;
};

struct ImageReport {
  std::string image;
  u32 blocks = 0, insns = 0;
  u32 indirect_sites = 0, resolved_indirects = 0;
  u32 passes = 0;  // analysis rounds until the indirect fixpoint
  /// False when max_passes ran out while indirect resolution was still
  /// making progress — the report may be based on an incomplete CFG.
  bool converged = true;

  /// No product reader; goes with triagebench's traced-pass rewrite (ROADMAP).
  std::vector<ElideHint> elide_hints;
  SummaryTable summaries;  // final-pass function summaries
  Cfg cfg;  // final-pass CFG, for tooling and the golden tests
};

ImageReport analyze_image(const os::Image& img, const SaOptions& opts = {});

/// Aggregate over every image of one corpus program (a farm JobSpec maps
/// to one of these).
struct ProgramReport {
  std::string name;
  u32 blocks = 0, insns = 0;  // summed over per_image
  std::vector<ImageReport> per_image;
};

ProgramReport analyze_images(const std::string& name,
                             const std::vector<os::Image>& images,
                             const SaOptions& opts = {});

}  // namespace faros::sa
