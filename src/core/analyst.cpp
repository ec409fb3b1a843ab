#include "core/analyst.h"

#include "common/strings.h"
#include "core/report.h"

namespace faros::core {

std::vector<TaintedRegion> tainted_regions(const FarosEngine& engine,
                                           const vm::AddressSpace& as,
                                           VAddr lo, VAddr hi,
                                           size_t max_regions) {
  std::vector<TaintedRegion> out;
  TaintedRegion current;
  bool open = false;
  auto flush = [&]() {
    if (open && out.size() < max_regions) out.push_back(current);
    open = false;
  };
  for (VAddr va = lo; va < hi; ++va) {
    auto pa = as.translate(va, vm::AccessType::kRead, false);
    ProvListId id = pa ? engine.shadow().get(*pa) : kEmptyProv;
    if (id == kEmptyProv) {
      flush();
      continue;
    }
    if (open && id == current.prov && va == current.start + current.len) {
      ++current.len;
    } else {
      flush();
      current = TaintedRegion{va, 1, id};
      open = true;
    }
    if (out.size() >= max_regions) break;
  }
  flush();
  return out;
}

std::vector<ProcessTaint> tainted_ranges(const FarosEngine& engine,
                                         const os::Kernel& kernel) {
  std::vector<ProcessTaint> out;
  for (const auto& info : kernel.process_list()) {
    const os::Process* p = kernel.find(info.pid);
    if (!p || !p->alive()) continue;
    ProcessTaint& pt = out.emplace_back(ProcessTaint{info, {}});
    for (const auto& region : p->regions) {
      for (const auto& r : tainted_regions(engine, p->as, region.base,
                                           region.base + region.len)) {
        pt.ranges.emplace_back(region.kind, r);
      }
    }
  }
  return out;
}

std::string taint_map(const FarosEngine& engine, os::Kernel& kernel) {
  std::string out;
  u32 region_node = 0;
  for (const ProcessTaint& pt : tainted_ranges(engine, kernel)) {
    out += strf("process %u (%s):\n", pt.info.pid, pt.info.name.c_str());
    for (const auto& [kind, r] : pt.ranges) {
      out += strf("  region:%-4u %s +%-6u [%s]  %s\n", region_node++,
                  hex32(r.start).c_str(), r.len, os::region_kind_name(kind),
                  render_chain(engine.store(), engine.maps(), r.prov).c_str());
    }
  }
  return out;
}

FindingSummary summarize_findings(const std::vector<Finding>& findings) {
  FindingSummary s;
  for (const Finding& f : findings) {
    // The graph's finding node index is the position in the findings
    // vector, so the ref label and the slice query address coincide.
    s.refs.push_back(strf("finding:%u %s in %s", s.total, f.policy.c_str(),
                          f.proc.name.c_str()));
    ++s.total;
    if (f.whitelisted) ++s.whitelisted;
    ++s.by_policy[f.policy];
    ++s.by_process[f.proc.name];
  }
  return s;
}

std::string render_summary(const FindingSummary& s) {
  std::string out;
  out += strf("findings: %u (%u whitelisted)\n", s.total, s.whitelisted);
  for (const auto& [policy, n] : s.by_policy) {
    out += strf("  policy %-36s %u\n", policy.c_str(), n);
  }
  for (const auto& [proc, n] : s.by_process) {
    out += strf("  in process %-30s %u\n", proc.c_str(), n);
  }
  for (const auto& ref : s.refs) {
    out += strf("  %s\n", ref.c_str());
  }
  return out;
}

}  // namespace faros::core
