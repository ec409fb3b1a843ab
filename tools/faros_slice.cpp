// faros_slice — query CLI over .fpg provenance-graph artifacts
// (written by `faros_triage --graph-out` / farm::FarmConfig::graph_out).
//
//   faros_slice info     --graph job.fpg            # counts + node table
//   faros_slice backward --graph job.fpg --from finding:0
//   faros_slice forward  --graph job.fpg --from netflow:0
//   faros_slice export   --graph job.fpg --dot      # Graphviz to stdout
//   faros_slice export   --graph job.fpg --jsonl    # node/edge JSONL
//
// backward answers "where did this artifact come from" (slice against data
// flow until the netflow/file sources); forward answers "what did this
// source reach". Both print the stable slice JSONL of graph::slice — byte
// reproducible for a given graph, so goldens can diff it.
//
// Exit code: 0 on success, 1 on bad usage / unreadable graph / unknown
// node reference.
#include <cstdio>
#include <string>

#include "common/strings.h"
#include "graph/graph.h"
#include "graph/slice.h"

using namespace faros;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: faros_slice <command> --graph PATH [options]\n"
               "commands:\n"
               "  info                 graph summary + per-type node table\n"
               "  backward             slice against data flow (origins)\n"
               "  forward              slice along data flow (reach)\n"
               "  export               whole-graph rendering to stdout\n"
               "options:\n"
               "  --graph PATH         .fpg artifact (required)\n"
               "  --from TYPE:INDEX    slice root, e.g. finding:0, netflow:2\n"
               "                       (required for backward/forward)\n"
               "  --depth N            max hops from the root (default 32)\n"
               "  --fanout N           neighbours expanded per node "
               "(default 64)\n"
               "  --dot | --jsonl      export format (default --jsonl)\n");
}

Result<graph::ProvGraph> load_graph(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Err<graph::ProvGraph>("cannot open '" + path + "'");
  Bytes data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return graph::deserialize(ByteSpan(data.data(), data.size()));
}

int cmd_info(const graph::ProvGraph& g) {
  std::printf("%zu nodes, %zu edges\n", g.nodes.size(), g.edges.size());
  for (u32 t = 0; t < graph::kNodeTypeCount; ++t) {
    auto type = static_cast<graph::NodeType>(t);
    size_t count = g.count(type);
    if (!count) continue;
    std::printf("  %-8s %zu\n", graph::node_type_name(type), count);
  }
  for (const auto& node : g.nodes) {
    std::printf("%-12s %-24s %s\n",
                (graph::node_type_name(node.type) + std::string(":") +
                 std::to_string(node.index))
                    .c_str(),
                node.name.c_str(), node.detail.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string command = argv[1];
  std::string graph_path, from_ref;
  graph::SliceOptions opts;
  bool dot = false, jsonl = false;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--graph" && i + 1 < argc) graph_path = argv[++i];
    else if (arg == "--from" && i + 1 < argc) from_ref = argv[++i];
    else if (arg == "--depth" && i + 1 < argc) {
      if (!parse_u32(argv[++i], &opts.max_depth)) {
        std::fprintf(stderr, "faros_slice: --depth needs a number\n");
        return 1;
      }
    } else if (arg == "--fanout" && i + 1 < argc) {
      if (!parse_u32(argv[++i], &opts.max_fanout)) {
        std::fprintf(stderr, "faros_slice: --fanout needs a number\n");
        return 1;
      }
    } else if (arg == "--dot") dot = true;
    else if (arg == "--jsonl") jsonl = true;
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else {
      std::fprintf(stderr, "faros_slice: unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (command == "--help" || command == "-h") {
    usage();
    return 0;
  }
  if (graph_path.empty()) {
    std::fprintf(stderr, "faros_slice: --graph is required\n");
    usage();
    return 1;
  }

  auto loaded = load_graph(graph_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "faros_slice: %s: %s\n", graph_path.c_str(),
                 loaded.error().message.c_str());
    return 1;
  }
  const graph::ProvGraph g = std::move(loaded).take();

  if (command == "info") return cmd_info(g);

  if (command == "export") {
    if (dot && jsonl) {
      std::fprintf(stderr, "faros_slice: pick one of --dot / --jsonl\n");
      return 1;
    }
    std::fputs(dot ? graph::render_dot(g).c_str()
                   : graph::render_jsonl(g).c_str(),
               stdout);
    return 0;
  }

  if (command != "backward" && command != "forward") {
    std::fprintf(stderr, "faros_slice: unknown command '%s'\n",
                 command.c_str());
    usage();
    return 1;
  }
  opts.forward = command == "forward";
  if (from_ref.empty()) {
    std::fprintf(stderr, "faros_slice: %s needs --from TYPE:INDEX\n",
                 command.c_str());
    return 1;
  }
  auto parsed = graph::parse_node_ref(from_ref);
  if (!parsed.ok()) {
    std::fprintf(stderr, "faros_slice: %s\n", parsed.error().message.c_str());
    return 1;
  }
  auto root = g.node_id(parsed.value().first, parsed.value().second);
  if (!root) {
    std::fprintf(stderr, "faros_slice: node '%s' not in this graph\n",
                 from_ref.c_str());
    return 1;
  }
  graph::Slice s = graph::slice(g, *root, opts);
  std::fputs(graph::render_slice_jsonl(g, s, opts).c_str(), stdout);
  return 0;
}
