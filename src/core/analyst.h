// Analyst-facing queries over a FarosEngine: tainted-region maps (which
// ranges of which process carry provenance, and what kind), and finding
// summaries. These are the "save the analyst hours of reverse engineering"
// conveniences the paper motivates.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/engine.h"

namespace faros::core {

/// A maximal run of consecutive virtual addresses whose bytes share the
/// same provenance list.
struct TaintedRegion {
  VAddr start = 0;
  u32 len = 0;
  ProvListId prov = kEmptyProv;
};

/// Scans [lo, hi) in `as` and coalesces tainted bytes into regions.
/// Unmapped gaps end a region. At most `max_regions` are returned.
std::vector<TaintedRegion> tainted_regions(const FarosEngine& engine,
                                           const vm::AddressSpace& as,
                                           VAddr lo, VAddr hi,
                                           size_t max_regions = 256);

/// One live process and the tainted ranges of its known regions, each
/// with the kind of region it lies in.
struct ProcessTaint {
  osi::ProcessInfo info;
  std::vector<std::pair<os::Region::Kind, TaintedRegion>> ranges;
};

/// The walk that numbers tainted ranges: every live process in
/// process_list() order, its regions in order, each region's ranges in
/// tainted_regions() order. Flattened, the k-th range is "region:<k>" in
/// taint_map and region node k in graph::build_graph.
std::vector<ProcessTaint> tainted_ranges(const FarosEngine& engine,
                                         const os::Kernel& kernel);

/// Full per-process taint map over every live process' known regions:
/// one line per tainted range, with the rendered provenance chain. Each
/// range is labelled "region:<k>" where k counts ranges in walk order —
/// the same order graph::build_graph materializes region nodes, so the
/// label is that range's node reference in the exported provenance graph
/// (one id namespace across text and graph artifacts).
std::string taint_map(const FarosEngine& engine, os::Kernel& kernel);

struct FindingSummary {
  std::map<std::string, u32> by_policy;
  std::map<std::string, u32> by_process;
  u32 total = 0;
  u32 whitelisted = 0;
  /// One "finding:<i> <policy> in <process>" line per finding, in findings
  /// order — i is the finding's node index in the exported graph, so text
  /// summaries cross-link to `faros_slice backward --from finding:<i>`.
  std::vector<std::string> refs;
};

FindingSummary summarize_findings(const std::vector<Finding>& findings);

std::string render_summary(const FindingSummary& summary);

}  // namespace faros::core
