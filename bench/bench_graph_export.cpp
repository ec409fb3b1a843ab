// bench_graph_export — cost of the provenance-graph layer (src/graph) over
// the injection corpus: graph builds/sec from a live engine snapshot,
// serialize MB/sec for the .fpg artifact, and backward slices/sec from
// every finding. Graph export runs once per farm job when --graph-out is
// set, so build+serialize must stay negligible next to record/replay
// (compare against bench_farm_throughput's jobs/sec).
#include <memory>

#include "attacks/corpus.h"
#include "bench_util.h"
#include "graph/graph.h"
#include "graph/slice.h"

using namespace faros;

int main() {
  bench::heading("Provenance graph export (src/graph) — injection corpus");

  // Analyze each scenario once, outside every timed region, and keep the
  // engine + kernel alive: the bench measures the graph layer, not the
  // analysis pipeline.
  std::vector<std::unique_ptr<attacks::Analysis>> runs;
  for (const auto& e : attacks::injection_corpus()) {
    auto sc = e.make();
    auto run = std::make_unique<attacks::Analysis>();
    if (auto s = run->start(*sc); !s.ok()) {
      std::fprintf(stderr, "FATAL: '%s': %s\n", e.name.c_str(),
                   s.error().message.c_str());
      return 1;
    }
    run->run(sc->budget());
    runs.push_back(std::move(run));
  }

  constexpr u32 kRounds = 50;

  // Build: engine snapshot -> typed graph.
  u64 nodes = 0, edges = 0;
  std::vector<graph::ProvGraph> graphs;
  double build_s = bench::time_s([&] {
    for (u32 round = 0; round < kRounds; ++round) {
      graphs.clear();
      nodes = edges = 0;
      for (const auto& run : runs) {
        graphs.push_back(
            graph::build_graph(run->engine(), run->machine().kernel()));
        nodes += graphs.back().nodes.size();
        edges += graphs.back().edges.size();
      }
    }
  });

  // Serialize: graph -> .fpg bytes.
  u64 bytes = 0;
  double ser_s = bench::time_s([&] {
    for (u32 round = 0; round < kRounds; ++round) {
      bytes = 0;
      for (const auto& g : graphs) bytes += graph::serialize(g).size();
    }
  });

  // Slice: backward from every finding of every graph.
  graph::SliceOptions opts;
  u64 slices = 0, hops = 0;
  double slice_s = bench::time_s([&] {
    for (u32 round = 0; round < kRounds; ++round) {
      slices = hops = 0;
      for (const auto& g : graphs) {
        size_t findings = g.count(graph::NodeType::kFinding);
        for (u32 i = 0; i < findings; ++i) {
          graph::Slice s = graph::slice(g, *g.node_id(graph::NodeType::kFinding, i), opts);
          ++slices;
          hops += s.hops.size();
        }
      }
    }
  });

  const double n = static_cast<double>(runs.size()) * kRounds;
  std::printf("%zu graphs/round: %llu nodes, %llu edges, %llu bytes, "
              "%llu slices (%llu hops)\n",
              runs.size(), static_cast<unsigned long long>(nodes),
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(slices),
              static_cast<unsigned long long>(hops));
  std::printf("build      %u rounds in %.3fs: %.0f graphs/s\n", kRounds,
              build_s, n / build_s);
  std::printf("serialize  %u rounds in %.3fs: %.0f graphs/s, %.2f MB/s\n",
              kRounds, ser_s, n / ser_s,
              static_cast<double>(bytes) * kRounds / ser_s / 1e6);
  std::printf("slice      %u rounds in %.3fs: %.0f slices/s\n", kRounds,
              slice_s, static_cast<double>(slices) * kRounds / slice_s);

  JsonWriter w;
  w.field("graphs", static_cast<u64>(runs.size()))
      .field("nodes", nodes)
      .field("edges", edges)
      .field("bytes", bytes)
      .field("slices", slices)
      .field("hops", hops)
      .field("rounds", kRounds)
      .field("build_s", build_s)
      .field("serialize_s", ser_s)
      .field("slice_s", slice_s)
      .field("builds_per_s", n / build_s)
      .field("serializes_per_s", n / ser_s)
      .field("slices_per_s", static_cast<double>(slices) * kRounds / slice_s);
  bench::json_record("graph_export", w);
  return 0;
}
