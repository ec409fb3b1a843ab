#include "sa/analyzer.h"

#include <algorithm>

#include "common/json.h"

namespace faros::sa {

namespace {

/// True when `insn` under pre-state `st` can neither move taint nor trap:
/// plainly taint_inert, or a kDivu whose divisor is a proven non-zero
/// constant (the one reason kDivu is excluded from taint_inert).
bool inert_under(const vm::Instruction& insn, const RegState& st) {
  if (vm::taint_inert(insn.op)) return true;
  if (insn.op != vm::Opcode::kDivu) return false;
  const AbsVal& d = st.regs[insn.rs2];
  return d.kind == ValKind::kConst && d.c != 0;
}

}  // namespace

ImageReport analyze_image(const os::Image& img, const SaOptions& opts) {
  ImageReport rep;
  rep.image = img.name;
  rep.base = img.base_va;
  rep.entry = img.entry_va();
  rep.size = static_cast<u32>(img.blob.size());

  // Alternate recovery and dataflow until no new indirect target resolves:
  // a target proven by constant propagation becomes a descent root, which
  // can expose more code, which can feed the next resolution. Call sites
  // are modelled by bottom-up function summaries over the call graph; the
  // summaries sharpen the dataflow, which can resolve more targets, which
  // reshapes the call graph on the next round.
  std::map<u32, u32> resolved;
  Cfg cfg;
  DataflowResult df;
  SummaryTable summaries;
  u32 passes = std::max(1u, opts.max_passes);
  bool progressed = false;
  for (u32 pass = 0; pass < passes; ++pass) {
    cfg = recover_cfg(img, resolved);
    CallGraph cg = build_callgraph(cfg);
    rep.functions = static_cast<u32>(cg.functions.size());
    summaries = compute_summaries(cfg, cg);
    SummaryCallModel model(summaries);
    df = run_dataflow(cfg, &model);
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
  for (const auto& [va, bb] : cfg.blocks) {
    bool inert = true;
    for (const vm::Instruction& insn : bb.insns) {
      if (!vm::taint_inert(insn.op)) { inert = false; break; }
    }
    if (inert) {
      ++rep.inert_blocks;
      rep.inert_insns += static_cast<u32>(bb.insns.size());
    }
    // Summary-level inertness: context-free proof over the block body.
    RegState st = RegState::all_varies();
    bool sum_inert = true;
    for (size_t i = 0; i < bb.insns.size(); ++i) {
      if (!inert_under(bb.insns[i], st)) { sum_inert = false; break; }
      transfer(bb.insns[i], bb.insn_va(i), st);
    }
    if (sum_inert) {
      ++rep.summary_inert_blocks;
      rep.summary_inert_insns += static_cast<u32>(bb.insns.size());
    }
  }
  rep.indirect_sites = static_cast<u32>(cfg.indirects.size());
  for (const IndirectSite& site : cfg.indirects) {
    if (site.resolved) ++rep.resolved_indirects;
  }
  rep.dead_regions = static_cast<u32>(cfg.dead_regions.size());
  rep.invalid_sites = static_cast<u32>(cfg.invalid_sites.size());

  RuleContext ctx{img, cfg, df};
  rep.findings = run_rules(ctx);
  for (const SaFinding& f : rep.findings) {
    rep.risk += severity_weight(f.severity);
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
  rep.risk_threshold = std::max(1u, opts.risk_threshold);
  for (const os::Image& img : images) {
    ImageReport ir = analyze_image(img, opts);
    ++rep.images;
    rep.blocks += ir.blocks;
    rep.insns += ir.insns;
    rep.findings += static_cast<u32>(ir.findings.size());
    rep.risk += ir.risk;
    for (const SaFinding& f : ir.findings) rep.rules.push_back(f.rule);
    rep.per_image.push_back(std::move(ir));
  }
  std::sort(rep.rules.begin(), rep.rules.end());
  rep.rules.erase(std::unique(rep.rules.begin(), rep.rules.end()),
                  rep.rules.end());
  return rep;
}

std::string rules_json(const std::vector<std::string>& rules) {
  std::string out = "[";
  for (size_t i = 0; i < rules.size(); ++i) {
    if (i) out += ',';
    out += '"';
    out += json_escape(rules[i]);
    out += '"';
  }
  out += ']';
  return out;
}

std::string finding_jsonl(const std::string& program,
                          const std::string& image, const SaFinding& f) {
  JsonWriter w;
  w.field("type", "finding")
      .field("program", program)
      .field("image", image)
      .field("rule", f.rule)
      .field("severity", severity_name(f.severity))
      .field("va", f.va)
      .field("disasm", f.disasm)
      .field("detail", f.detail);
  return w.str();
}

std::string image_jsonl(const std::string& program, const ImageReport& r) {
  JsonWriter w;
  w.field("type", "image")
      .field("program", program)
      .field("image", r.image)
      .field("base", r.base)
      .field("entry", r.entry)
      .field("size", r.size)
      .field("blocks", r.blocks)
      .field("insns", r.insns)
      .field("inert_blocks", r.inert_blocks)
      .field("inert_insns", r.inert_insns)
      .field("summary_inert_blocks", r.summary_inert_blocks)
      .field("summary_inert_insns", r.summary_inert_insns)
      .field("functions", r.functions)
      .field("indirect_sites", r.indirect_sites)
      .field("resolved_indirects", r.resolved_indirects)
      .field("dead_regions", r.dead_regions)
      .field("invalid_sites", r.invalid_sites)
      .field("passes", r.passes)
      .field("converged", r.converged)
      .field("findings", static_cast<u32>(r.findings.size()))
      .field("risk", r.risk);
  return w.str();
}

std::string program_jsonl(const std::string& category,
                          const ProgramReport& r) {
  JsonWriter w;
  w.field("type", "program")
      .field("name", r.name)
      .field("category", category)
      .field("images", r.images)
      .field("blocks", r.blocks)
      .field("insns", r.insns)
      .field("findings", r.findings)
      .field("risk", r.risk)
      .field("static_flagged", r.flagged())
      .raw_field("rules", rules_json(r.rules));
  return w.str();
}

}  // namespace faros::sa
