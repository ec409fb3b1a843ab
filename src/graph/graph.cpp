#include "graph/graph.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/json.h"
#include "common/strings.h"
#include "core/analyst.h"
#include "core/report.h"
#include "os/process.h"

namespace faros::graph {

const char* node_type_name(NodeType t) {
  switch (t) {
    case NodeType::kNetflow: return "netflow";
    case NodeType::kProcess: return "process";
    case NodeType::kFile: return "file";
    case NodeType::kModule: return "module";
    case NodeType::kRegion: return "region";
    case NodeType::kFinding: return "finding";
  }
  return "?";
}

const char* edge_type_name(EdgeType t) {
  switch (t) {
    case EdgeType::kDerivedFrom: return "derived-from";
    case EdgeType::kWroteInto: return "wrote-into";
    case EdgeType::kFetchedBy: return "fetched-by";
    case EdgeType::kSpawned: return "spawned";
    case EdgeType::kFlagged: return "flagged";
  }
  return "?";
}

bool edge_flows_forward(EdgeType t) {
  switch (t) {
    case EdgeType::kDerivedFrom:
    case EdgeType::kFlagged:
      return false;  // stored sink -> source; data flows dst -> src
    case EdgeType::kWroteInto:
    case EdgeType::kFetchedBy:
    case EdgeType::kSpawned:
      return true;
  }
  return true;
}

size_t ProvGraph::count(NodeType t) const {
  size_t n = 0;
  for (const Node& node : nodes) {
    if (node.type == t) ++n;
  }
  return n;
}

std::optional<u32> ProvGraph::node_id(NodeType t, u32 index) const {
  // Nodes are type-major, so a linear scan finds the run quickly; graphs
  // are per-job and small.
  for (u32 i = 0; i < nodes.size(); ++i) {
    if (nodes[i].type == t && nodes[i].index == index) return i;
  }
  return std::nullopt;
}

std::string ProvGraph::ref(u32 node_id) const {
  if (node_id >= nodes.size()) return "?";
  const Node& n = nodes[node_id];
  return strf("%s:%u", node_type_name(n.type), n.index);
}

Result<std::pair<NodeType, u32>> parse_node_ref(const std::string& ref) {
  auto colon = ref.find(':');
  if (colon == std::string::npos || colon + 1 >= ref.size()) {
    return Err<std::pair<NodeType, u32>>("node ref must be '<type>:<index>'");
  }
  std::string type_s = ref.substr(0, colon);
  NodeType type = NodeType::kNetflow;
  bool found = false;
  for (u32 t = 0; t < kNodeTypeCount; ++t) {
    if (type_s == node_type_name(static_cast<NodeType>(t))) {
      type = static_cast<NodeType>(t);
      found = true;
      break;
    }
  }
  if (!found) {
    return Err<std::pair<NodeType, u32>>("unknown node type '" + type_s + "'");
  }
  u32 index = 0;
  for (size_t i = colon + 1; i < ref.size(); ++i) {
    char c = ref[i];
    if (c < '0' || c > '9') {
      return Err<std::pair<NodeType, u32>>("bad node index in '" + ref + "'");
    }
    index = index * 10 + static_cast<u32>(c - '0');
  }
  return std::make_pair(type, index);
}

// ---------------------------------------------------------------------------
// Builder.

namespace {

/// Per-tag reference counts over every interned list (the ProvStore walk):
/// how many distinct provenance lists mention each netflow/file tag, plus
/// the export-table tag. Stored in node payload `c` as a quick "how hot is
/// this source" analyst signal.
struct TagRefCounts {
  std::unordered_map<u16, u64> netflow;
  std::unordered_map<u16, u64> file;
  u64 export_table = 0;
};

TagRefCounts count_tag_refs(const core::ProvStore& store) {
  TagRefCounts counts;
  store.for_each_list([&](core::ProvListId, const std::vector<core::ProvTag>& tags) {
    for (const core::ProvTag& tag : tags) {
      switch (tag.type()) {
        case core::TagType::kNetflow: ++counts.netflow[tag.index()]; break;
        case core::TagType::kFile: ++counts.file[tag.index()]; break;
        case core::TagType::kExportTable: ++counts.export_table; break;
        case core::TagType::kProcess: break;
      }
    }
  });
  return counts;
}

struct Builder {
  const core::FarosEngine& engine;
  const os::Kernel& kernel;
  ProvGraph g;
  std::map<u32, u32> process_node_by_pid;  // pid -> global node id
  u32 export_module_node = 0;              // synthetic export-tables node
  std::vector<Edge> raw_edges;

  void add_edge(EdgeType type, u32 src, u32 dst, u32 aux) {
    raw_edges.push_back(Edge{type, src, dst, aux});
  }

  /// derived-from / wrote-into edges for every tag of list `prov`, with
  /// `sink` as the tainted artifact (region or finding node). The chain
  /// position rides along in aux so a slice can reconstruct Figure-4 order.
  void add_prov_edges(u32 sink, core::ProvListId prov) {
    const auto& tags = engine.store().get(prov);
    for (u32 pos = 0; pos < tags.size(); ++pos) {
      const core::ProvTag& tag = tags[pos];
      switch (tag.type()) {
        case core::TagType::kNetflow: {
          auto id = g.node_id(NodeType::kNetflow, tag.index());
          if (id) add_edge(EdgeType::kDerivedFrom, sink, *id, pos);
          break;
        }
        case core::TagType::kFile: {
          auto id = g.node_id(NodeType::kFile, tag.index());
          if (id) add_edge(EdgeType::kDerivedFrom, sink, *id, pos);
          break;
        }
        case core::TagType::kExportTable:
          add_edge(EdgeType::kDerivedFrom, sink, export_module_node, pos);
          break;
        case core::TagType::kProcess: {
          // Process tags name who moved the bytes: process -> sink.
          const auto& entry = engine.maps().process.get(tag.index());
          auto it = process_node_by_pid.find(entry.pid);
          if (it != process_node_by_pid.end()) {
            add_edge(EdgeType::kWroteInto, it->second, sink, pos);
          }
          break;
        }
      }
    }
  }

  void build_netflow_nodes(const TagRefCounts& refs) {
    const core::NetflowMap& map = engine.maps().netflow;
    for (u16 i = 0; i < map.size(); ++i) {
      const FlowTuple& flow = map.get(i);
      Node n;
      n.type = NodeType::kNetflow;
      n.index = i;
      n.name = strf("%s:%u->%s:%u", ipv4_to_string(flow.src_ip).c_str(),
                    flow.src_port, ipv4_to_string(flow.dst_ip).c_str(),
                    flow.dst_port);
      n.detail = flow.to_string();
      n.a = (static_cast<u64>(flow.src_ip) << 16) | flow.src_port;
      n.b = (static_cast<u64>(flow.dst_ip) << 16) | flow.dst_port;
      auto it = refs.netflow.find(i);
      n.c = it == refs.netflow.end() ? 0 : it->second;
      g.nodes.push_back(std::move(n));
    }
  }

  void build_process_nodes() {
    // First the interned processes in tag-index order (so process node
    // index == process tag index for everything provenance mentions), then
    // kernel processes the engine never tagged, in pid order.
    const core::ProcessMap& map = engine.maps().process;
    for (u16 i = 0; i < map.size(); ++i) {
      const core::ProcessMap::Entry& e = map.get(i);
      const os::Process* p = kernel.find(e.pid);
      Node n;
      n.type = NodeType::kProcess;
      n.index = static_cast<u32>(g.count(NodeType::kProcess));
      n.name = e.name;
      n.detail = strf("pid %u%s", e.pid,
                      p && p->alive() ? "" : " (exited)");
      n.a = e.pid;
      n.b = e.cr3;
      n.c = p ? p->parent : 0;
      process_node_by_pid.emplace(e.pid, static_cast<u32>(g.nodes.size()));
      g.nodes.push_back(std::move(n));
    }
    for (const auto& info : kernel.process_list()) {
      if (process_node_by_pid.count(info.pid)) continue;
      const os::Process* p = kernel.find(info.pid);
      Node n;
      n.type = NodeType::kProcess;
      n.index = static_cast<u32>(g.count(NodeType::kProcess));
      n.name = info.name;
      n.detail = strf("pid %u%s", info.pid,
                      p && p->alive() ? "" : " (exited)");
      n.a = info.pid;
      n.b = info.cr3;
      n.c = info.parent_pid;
      process_node_by_pid.emplace(info.pid, static_cast<u32>(g.nodes.size()));
      g.nodes.push_back(std::move(n));
    }
  }

  void build_file_nodes(const TagRefCounts& refs) {
    const core::FileMap& map = engine.maps().file;
    for (u16 i = 0; i < map.size(); ++i) {
      const core::FileMap::Entry& e = map.get(i);
      Node n;
      n.type = NodeType::kFile;
      n.index = i;
      n.name = e.name;
      n.detail = strf("v%u", e.version);
      n.a = e.file_id;
      n.b = e.version;
      auto it = refs.file.find(i);
      n.c = it == refs.file.end() ? 0 : it->second;
      g.nodes.push_back(std::move(n));
    }
  }

  void build_module_nodes(const TagRefCounts& refs) {
    u32 index = 0;
    for (const osi::ModuleInfo& mod : kernel.modules()) {
      Node n;
      n.type = NodeType::kModule;
      n.index = index++;
      n.name = mod.name;
      n.detail = strf("base %s", hex64(mod.base).c_str());
      n.a = mod.base;
      n.b = mod.size;
      n.c = mod.export_count;
      g.nodes.push_back(std::move(n));
    }
    // The export-table tag carries no payload (paper Figure 6), so every
    // export-table reference resolves to this one synthetic target.
    Node n;
    n.type = NodeType::kModule;
    n.index = index;
    n.name = "export-tables";
    n.detail = "synthetic target of export-table tags";
    n.c = refs.export_table;
    export_module_node = static_cast<u32>(g.nodes.size());
    g.nodes.push_back(std::move(n));
  }

  void build_region_nodes() {
    // core::tainted_ranges numbers the ranges, so region node k is the
    // range the taint map labels "region:k" — the cross-link contract.
    for (const core::ProcessTaint& pt : core::tainted_ranges(engine, kernel)) {
      for (const auto& [kind, r] : pt.ranges) {
        Node n;
        n.type = NodeType::kRegion;
        n.index = static_cast<u32>(g.count(NodeType::kRegion));
        n.name = strf("%s %s", pt.info.name.c_str(), hex32(r.start).c_str());
        n.detail = strf("+%u [%s] %s", r.len, os::region_kind_name(kind),
                        core::render_chain(engine.store(), engine.maps(),
                                           r.prov)
                            .c_str());
        n.a = r.start;
        n.b = (static_cast<u64>(pt.info.pid) << 32) | r.len;
        n.c = r.prov;
        u32 id = static_cast<u32>(g.nodes.size());
        g.nodes.push_back(std::move(n));
        add_prov_edges(id, r.prov);
      }
    }
  }

  void build_finding_nodes() {
    const auto& findings = engine.findings();
    for (u32 i = 0; i < findings.size(); ++i) {
      const core::Finding& f = findings[i];
      Node n;
      n.type = NodeType::kFinding;
      n.index = i;
      n.name = f.policy;
      n.detail = strf("%s @ %s in %s", f.disasm.c_str(),
                      hex32(f.insn_va).c_str(), f.proc.name.c_str());
      n.a = f.insn_va;
      n.b = f.instr_index;
      n.c = (static_cast<u64>(f.whitelisted) << 1) |
            static_cast<u64>(f.warn_only);
      u32 id = static_cast<u32>(g.nodes.size());
      g.nodes.push_back(std::move(n));

      // Direct provenance edges from both lists: even when the payload was
      // transient (erased, exited process) the finding still anchors the
      // full origin chain.
      add_prov_edges(id, f.fetch_prov);
      add_prov_edges(id, f.target_prov);

      auto pit = process_node_by_pid.find(f.proc.pid);
      if (pit != process_node_by_pid.end()) {
        add_edge(EdgeType::kFetchedBy, id, pit->second, 0);
      }
      // The tainted region holding the flagged pc, if it still exists.
      for (u32 r = 0; r < g.nodes.size(); ++r) {
        const Node& rn = g.nodes[r];
        if (rn.type != NodeType::kRegion) continue;
        u32 owner_pid = static_cast<u32>(rn.b >> 32);
        u32 len = static_cast<u32>(rn.b & 0xffffffffu);
        if (owner_pid == f.proc.pid && f.insn_va >= rn.a &&
            f.insn_va < rn.a + len) {
          add_edge(EdgeType::kFlagged, id, r, 0);
          break;
        }
      }
    }
  }

  void build_spawn_edges() {
    for (const auto& [pid, node_id] : process_node_by_pid) {
      const os::Process* p = kernel.find(pid);
      if (!p || p->parent == 0) continue;
      auto parent = process_node_by_pid.find(p->parent);
      if (parent != process_node_by_pid.end()) {
        add_edge(EdgeType::kSpawned, parent->second, node_id, 0);
      }
    }
  }

  void finish_edges() {
    // Dedup on (type, src, dst) keeping the smallest chain position, then
    // a total order — the byte-determinism contract.
    std::sort(raw_edges.begin(), raw_edges.end(),
              [](const Edge& x, const Edge& y) {
                return std::tie(x.type, x.src, x.dst, x.aux) <
                       std::tie(y.type, y.src, y.dst, y.aux);
              });
    for (const Edge& e : raw_edges) {
      if (!g.edges.empty()) {
        const Edge& last = g.edges.back();
        if (last.type == e.type && last.src == e.src && last.dst == e.dst) {
          continue;
        }
      }
      g.edges.push_back(e);
    }
  }
};

}  // namespace

ProvGraph build_graph(const core::FarosEngine& engine,
                      const os::Kernel& kernel) {
  Builder b{engine, kernel, {}, {}, 0, {}};
  TagRefCounts refs = count_tag_refs(engine.store());
  b.build_netflow_nodes(refs);
  b.build_process_nodes();
  b.build_file_nodes(refs);
  b.build_module_nodes(refs);
  b.build_region_nodes();
  b.build_finding_nodes();
  b.build_spawn_edges();
  b.finish_edges();
  return std::move(b.g);
}

// ---------------------------------------------------------------------------
// On-disk format: "FPG1", string table, nodes, edges.

namespace {

constexpr u32 kMagic = 0x31475046u;  // "FPG1" little-endian
constexpr u32 kVersion = 1;

}  // namespace

Bytes serialize(const ProvGraph& g) {
  // String table in first-use order (node name, then detail, per node).
  std::vector<std::string> strings;
  std::unordered_map<std::string, u32> sid;
  auto intern = [&](const std::string& s) {
    auto it = sid.find(s);
    if (it != sid.end()) return it->second;
    u32 id = static_cast<u32>(strings.size());
    strings.push_back(s);
    sid.emplace(s, id);
    return id;
  };

  struct PackedNode {
    u8 type;
    u32 name_sid, detail_sid;
    u64 a, b, c;
  };
  std::vector<PackedNode> packed;
  packed.reserve(g.nodes.size());
  for (const Node& n : g.nodes) {
    packed.push_back(PackedNode{static_cast<u8>(n.type), intern(n.name),
                                intern(n.detail), n.a, n.b, n.c});
  }

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_u32(static_cast<u32>(strings.size()));
  for (const std::string& s : strings) w.put_str(s);
  w.put_u32(static_cast<u32>(packed.size()));
  for (const PackedNode& n : packed) {
    w.put_u8(n.type);
    w.put_u32(n.name_sid);
    w.put_u32(n.detail_sid);
    w.put_u64(n.a);
    w.put_u64(n.b);
    w.put_u64(n.c);
  }
  w.put_u32(static_cast<u32>(g.edges.size()));
  for (const Edge& e : g.edges) {
    w.put_u8(static_cast<u8>(e.type));
    w.put_u32(e.src);
    w.put_u32(e.dst);
    w.put_u32(e.aux);
  }
  return w.take();
}

Result<ProvGraph> deserialize(ByteSpan data) {
  ByteReader r(data);
  if (r.get_u32() != kMagic) return Err<ProvGraph>("not an FPG graph file");
  u32 version = r.get_u32();
  if (version != kVersion) {
    return Err<ProvGraph>(strf("unsupported FPG version %u", version));
  }
  u32 nstrings = r.get_u32();
  std::vector<std::string> strings;
  strings.reserve(std::min<u32>(nstrings, 1u << 16));
  for (u32 i = 0; i < nstrings && r.ok(); ++i) strings.push_back(r.get_str());

  ProvGraph g;
  u32 nnodes = r.get_u32();
  u32 per_type[kNodeTypeCount] = {};
  for (u32 i = 0; i < nnodes && r.ok(); ++i) {
    u8 type = r.get_u8();
    u32 name_sid = r.get_u32();
    u32 detail_sid = r.get_u32();
    u64 a = r.get_u64(), b = r.get_u64(), c = r.get_u64();
    if (type >= kNodeTypeCount || name_sid >= strings.size() ||
        detail_sid >= strings.size()) {
      return Err<ProvGraph>(strf("corrupt node %u", i));
    }
    Node n;
    n.type = static_cast<NodeType>(type);
    n.index = per_type[type]++;  // recomputed; serialization omits it
    n.name = strings[name_sid];
    n.detail = strings[detail_sid];
    n.a = a;
    n.b = b;
    n.c = c;
    g.nodes.push_back(std::move(n));
  }
  u32 nedges = r.get_u32();
  for (u32 i = 0; i < nedges && r.ok(); ++i) {
    u8 type = r.get_u8();
    u32 src = r.get_u32(), dst = r.get_u32(), aux = r.get_u32();
    if (type >= kEdgeTypeCount || src >= g.nodes.size() ||
        dst >= g.nodes.size()) {
      return Err<ProvGraph>(strf("corrupt edge %u", i));
    }
    g.edges.push_back(Edge{static_cast<EdgeType>(type), src, dst, aux});
  }
  if (!r.ok()) return Err<ProvGraph>("truncated FPG graph file");
  return g;
}

// ---------------------------------------------------------------------------
// Human renderings.

std::string render_dot(const ProvGraph& g) {
  static constexpr const char* kColors[kNodeTypeCount] = {
      "lightskyblue",  // netflow
      "palegreen",     // process
      "khaki",         // file
      "lightgrey",     // module
      "sandybrown",    // region
      "salmon",        // finding
  };
  std::string out = "digraph prov {\n  rankdir=LR;\n  node [shape=box];\n";
  for (u32 i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    out += strf("  n%u [label=\"%s\\n%s\", style=filled, fillcolor=%s];\n",
                i, g.ref(i).c_str(), json_escape(n.name).c_str(),
                kColors[static_cast<u32>(n.type)]);
  }
  for (const Edge& e : g.edges) {
    out += strf("  n%u -> n%u [label=\"%s\"];\n", e.src, e.dst,
                edge_type_name(e.type));
  }
  out += "}\n";
  return out;
}

std::string render_jsonl(const ProvGraph& g) {
  std::string out;
  for (u32 i = 0; i < g.nodes.size(); ++i) {
    const Node& n = g.nodes[i];
    JsonWriter w;
    w.field("type", "node")
        .field("ref", g.ref(i))
        .field("kind", node_type_name(n.type))
        .field("name", n.name)
        .field("detail", n.detail)
        .field("a", n.a)
        .field("b", n.b)
        .field("c", n.c);
    out += w.str();
    out += '\n';
  }
  for (const Edge& e : g.edges) {
    JsonWriter w;
    w.field("type", "edge")
        .field("kind", edge_type_name(e.type))
        .field("src", g.ref(e.src))
        .field("dst", g.ref(e.dst))
        .field("aux", e.aux);
    out += w.str();
    out += '\n';
  }
  return out;
}

}  // namespace faros::graph
