#include "sa/analyzer.h"

#include <algorithm>

namespace faros::sa {

ImageReport analyze_image(const os::Image& img, const SaOptions& opts) {
  ImageReport rep;
  rep.image = img.name;

  // Alternate recovery and dataflow until no new indirect target resolves:
  // a target proven by constant propagation becomes a descent root, which
  // can expose more code, which can feed the next resolution. Call sites
  // are modelled by bottom-up function summaries over the call graph; the
  // summaries sharpen the dataflow, which can resolve more targets, which
  // reshapes the call graph on the next round.
  std::map<u32, u32> resolved;
  Cfg cfg;
  SummaryTable summaries;
  u32 passes = std::max(1u, opts.max_passes);
  bool progressed = false;
  for (u32 pass = 0; pass < passes; ++pass) {
    cfg = recover_cfg(img, resolved);
    summaries = compute_summaries(cfg, build_callgraph(cfg));
    SummaryCallModel model(summaries);
    DataflowResult df = run_dataflow(cfg, &model);
    ++rep.passes;
    progressed = false;
    for (const IndirectSite& site : cfg.indirects) {
      if (site.resolved || resolved.count(site.va)) continue;
      auto it = df.indirect_value.find(site.va);
      if (it == df.indirect_value.end()) continue;
      const AbsVal& v = it->second;
      if (v.kind != ValKind::kConst) continue;
      if (!cfg.contains(v.c) || (v.c - cfg.base) % vm::kInsnSize != 0) {
        continue;  // constant, but not a code address we can descend into
      }
      resolved[site.va] = v.c;
      progressed = true;
    }
    if (!progressed) break;
  }
  // Progress on the final round means resolution was still expanding the
  // CFG when the pass budget ran out: report it, don't hide it.
  rep.converged = !progressed;

  rep.blocks = static_cast<u32>(cfg.blocks.size());
  rep.insns = cfg.insn_count;
  rep.indirect_sites = static_cast<u32>(cfg.indirects.size());
  for (const IndirectSite& site : cfg.indirects) {
    if (site.resolved) ++rep.resolved_indirects;
  }
  rep.summaries = std::move(summaries);
  rep.cfg = std::move(cfg);

  return rep;
}

ProgramReport analyze_images(const std::string& name,
                             const std::vector<os::Image>& images,
                             const SaOptions& opts) {
  ProgramReport rep;
  rep.name = name;
  for (const os::Image& img : images) {
    ImageReport ir = analyze_image(img, opts);
    rep.blocks += ir.blocks;
    rep.insns += ir.insns;
    rep.per_image.push_back(std::move(ir));
  }
  return rep;
}

}  // namespace faros::sa
