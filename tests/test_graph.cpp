// src/graph: provenance-graph export + slicing. Golden backward/forward
// slices for the multi-hop scenarios, the finding->source reachability
// property over the whole injection corpus, FPG round-tripping, farm
// --graph-out worker-count determinism, the analyst-text <-> graph node-id
// cross-links, and the 255-saturation pin behind the rule grammar's
// distinct-netflows/process-count thresholds.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "attacks/scenarios.h"
#include "core/analyst.h"
#include "core/rules.h"
#include "farm/farm.h"
#include "graph/graph.h"
#include "graph/slice.h"

namespace faros {
namespace {

using graph::NodeType;

/// One analyzed run, then a copy of everything the graph tests compare: the
/// graph itself plus the analyst text it must cross-link to.
struct Analyzed {
  graph::ProvGraph g;
  std::vector<core::Finding> findings;
  std::string taint_map_text;
  core::FindingSummary summary;
  bool ok = false;
};

Analyzed analyze_graph(attacks::Scenario& sc,
                       const core::Options& opts = {}) {
  Analyzed out;
  attacks::Analysis a(opts);
  auto s = a.start(sc);
  EXPECT_TRUE(s.ok()) << sc.name() << ": " << s.error().message;
  if (!s.ok()) return out;
  a.run(sc.budget());
  const core::FarosEngine& engine = a.engine();
  os::Kernel& k = a.machine().kernel();
  out.g = graph::build_graph(engine, k);
  out.findings = engine.findings();
  out.taint_map_text = core::taint_map(engine, k);
  out.summary = core::summarize_findings(engine.findings());
  out.ok = true;
  return out;
}

std::vector<std::string> source_refs(const graph::ProvGraph& g,
                                     const graph::Slice& s) {
  std::vector<std::string> out;
  for (u32 id : s.sources) out.push_back(g.ref(id));
  return out;
}

std::set<std::string> hop_process_names(const graph::ProvGraph& g,
                                        const graph::Slice& s) {
  std::set<std::string> out;
  for (const auto& hop : s.hops) {
    if (g.nodes[hop.node].type == NodeType::kProcess) {
      out.insert(g.nodes[hop.node].name);
    }
  }
  return out;
}

graph::Slice backward_from_finding(const graph::ProvGraph& g, u32 index) {
  auto root = g.node_id(NodeType::kFinding, index);
  EXPECT_TRUE(root.has_value());
  graph::SliceOptions opts;
  return graph::slice(g, root.value_or(0), opts);
}

// --- golden backward/forward slices ----------------------------------------

TEST(GraphSlice, ThreadHijackBackwardReachesExactlyTheOriginFlow) {
  attacks::ThreadHijackScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  ASSERT_GE(a.g.count(NodeType::kFinding), 1u);
  EXPECT_EQ(a.g.nodes[*a.g.node_id(NodeType::kFinding, 0)].name,
            "netflow-export-confluence");

  graph::Slice s = backward_from_finding(a.g, 0);
  EXPECT_FALSE(s.truncated);
  // The one true origin and zero spurious sources: the hijacked bytes came
  // off the wire, never through a file.
  EXPECT_EQ(source_refs(a.g, s), (std::vector<std::string>{"netflow:0"}));
  // Both chain processes are on the slice: the downloader and the victim
  // the payload was written into.
  std::set<std::string> procs = hop_process_names(a.g, s);
  EXPECT_TRUE(procs.count("hijacker.exe"));
  EXPECT_TRUE(procs.count("taskhost.exe"));
}

TEST(GraphSlice, ThreadHijackForwardFromFlowReachesFlaggedRegion) {
  attacks::ThreadHijackScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  auto root = a.g.node_id(NodeType::kNetflow, 0);
  ASSERT_TRUE(root.has_value());
  graph::SliceOptions opts;
  opts.forward = true;
  graph::Slice s = graph::slice(a.g, *root, opts);

  bool saw_victim_region = false, saw_finding = false;
  for (const auto& hop : s.hops) {
    const graph::Node& n = a.g.nodes[hop.node];
    if (n.type == NodeType::kRegion &&
        n.name.find("taskhost.exe") != std::string::npos) {
      saw_victim_region = true;
    }
    if (n.type == NodeType::kFinding) saw_finding = true;
  }
  EXPECT_TRUE(saw_victim_region);
  EXPECT_TRUE(saw_finding);
}

TEST(GraphSlice, InjectionRelayBackwardSpansAllThreeHops) {
  attacks::InjectionRelayScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  ASSERT_GE(a.findings.size(), 1u);
  // Only the final victim walks export tables, so the flag lands in C.
  EXPECT_EQ(a.findings[0].proc.name, "conhost.exe");

  graph::Slice s = backward_from_finding(a.g, 0);
  EXPECT_FALSE(s.truncated);
  EXPECT_EQ(source_refs(a.g, s), (std::vector<std::string>{"netflow:0"}));
  // A -> B -> C: all three processes rode the payload's provenance.
  std::set<std::string> procs = hop_process_names(a.g, s);
  EXPECT_TRUE(procs.count("stage0.exe"));
  EXPECT_TRUE(procs.count("relay.exe"));
  EXPECT_TRUE(procs.count("conhost.exe"));
}

TEST(GraphSlice, MultiStageC2BackwardFindsBothFlowsAndNoFiles) {
  core::Options opts;
  auto rules = core::parse_ruleset_json(R"({"rules":[{
      "id": "multi-stage-c2", "trigger": "tainted-load", "action": "flag",
      "when": ["fetch distinct-netflows>=2"]}]})");
  ASSERT_TRUE(rules.ok()) << rules.error().message;
  opts.rules = std::move(rules).take();

  attacks::MultiStageC2Scenario sc;
  Analyzed a = analyze_graph(sc, opts);
  ASSERT_TRUE(a.ok);
  ASSERT_GE(a.g.count(NodeType::kFinding), 1u);

  graph::Slice s = backward_from_finding(a.g, 0);
  // Exactly the two C2 endpoints (payload server + key server), no file
  // sources: the whole chain lived in memory.
  EXPECT_EQ(source_refs(a.g, s),
            (std::vector<std::string>{"netflow:0", "netflow:1"}));
}

// --- reachability property over the whole injection corpus -----------------

TEST(GraphSlice, EveryInjectionFindingBackwardSlicesToASource) {
  for (const auto& e : attacks::injection_corpus()) {
    auto sc = e.make();
    Analyzed a = analyze_graph(*sc);
    ASSERT_TRUE(a.ok) << e.name;
    size_t findings = a.g.count(NodeType::kFinding);
    ASSERT_GE(findings, 1u) << e.name;
    for (u32 i = 0; i < findings; ++i) {
      const graph::Node& fn = a.g.nodes[*a.g.node_id(NodeType::kFinding, i)];
      if ((fn.c >> 1) & 1) continue;  // whitelisted: no claim
      graph::Slice s = backward_from_finding(a.g, i);
      EXPECT_FALSE(s.sources.empty())
          << e.name << " finding:" << i << " (" << fn.name
          << ") has no netflow/file origin";
      for (u32 src : s.sources) {
        NodeType t = a.g.nodes[src].type;
        EXPECT_TRUE(t == NodeType::kNetflow || t == NodeType::kFile)
            << e.name << " finding:" << i;
      }
    }
  }
}

// --- binary format ----------------------------------------------------------

TEST(GraphFormat, SerializeDeserializeRoundTripsByteForByte) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  ASSERT_FALSE(a.g.nodes.empty());

  Bytes bytes = graph::serialize(a.g);
  auto back = graph::deserialize(ByteSpan(bytes.data(), bytes.size()));
  ASSERT_TRUE(back.ok()) << back.error().message;
  const graph::ProvGraph& g2 = back.value();

  ASSERT_EQ(g2.nodes.size(), a.g.nodes.size());
  for (size_t i = 0; i < g2.nodes.size(); ++i) {
    EXPECT_EQ(g2.nodes[i].type, a.g.nodes[i].type);
    EXPECT_EQ(g2.nodes[i].index, a.g.nodes[i].index);
    EXPECT_EQ(g2.nodes[i].name, a.g.nodes[i].name);
    EXPECT_EQ(g2.nodes[i].detail, a.g.nodes[i].detail);
    EXPECT_EQ(g2.nodes[i].a, a.g.nodes[i].a);
    EXPECT_EQ(g2.nodes[i].b, a.g.nodes[i].b);
    EXPECT_EQ(g2.nodes[i].c, a.g.nodes[i].c);
  }
  ASSERT_EQ(g2.edges.size(), a.g.edges.size());
  for (size_t i = 0; i < g2.edges.size(); ++i) {
    EXPECT_EQ(g2.edges[i].type, a.g.edges[i].type);
    EXPECT_EQ(g2.edges[i].src, a.g.edges[i].src);
    EXPECT_EQ(g2.edges[i].dst, a.g.edges[i].dst);
    EXPECT_EQ(g2.edges[i].aux, a.g.edges[i].aux);
  }
  EXPECT_EQ(graph::serialize(g2), bytes);
}

TEST(GraphFormat, DeserializeRejectsGarbage) {
  Bytes junk{'n', 'o', 't', ' ', 'a', ' ', 'g', 'r', 'a', 'p', 'h'};
  EXPECT_FALSE(graph::deserialize(ByteSpan(junk.data(), junk.size())).ok());
  Bytes empty;
  EXPECT_FALSE(graph::deserialize(ByteSpan(empty.data(), 0)).ok());
}

TEST(GraphFormat, DeserializeRejectsEveryTruncationCleanly) {
  // An FPG1 file carries no trailing padding: every strict prefix is
  // missing data and must come back as a clean error — never a crash, an
  // over-allocation, or a silently short graph.
  attacks::ThreadHijackScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  Bytes bytes = graph::serialize(a.g);
  ASSERT_GT(bytes.size(), 64u);

  for (size_t len = 0; len < bytes.size(); ++len) {
    auto r = graph::deserialize(ByteSpan(bytes.data(), len));
    EXPECT_FALSE(r.ok()) << "truncation to " << len << " of " << bytes.size()
                         << " bytes parsed as a graph";
    if (r.ok()) break;
  }
}

TEST(GraphFormat, DeserializeSurvivesDeterministicBitFlips) {
  // Single-bit corruption anywhere in the file must either parse (a flip
  // inside string payload or node payload words can be benign) or fail
  // with an error — the ASan job runs this, so any out-of-bounds read or
  // unchecked allocation provoked by a corrupt count surfaces here.
  attacks::ThreadHijackScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);
  const Bytes bytes = graph::serialize(a.g);
  ASSERT_FALSE(bytes.empty());

  u64 lcg = 0x243f6a8885a308d3ull;  // fixed seed: the corpus is deterministic
  auto next = [&lcg] {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 16;
  };
  size_t rejected = 0;
  for (int i = 0; i < 512; ++i) {
    Bytes mut = bytes;
    const size_t pos = static_cast<size_t>(next() % mut.size());
    mut[pos] ^= static_cast<u8>(1u << (next() % 8));
    auto r = graph::deserialize(ByteSpan(mut.data(), mut.size()));
    if (!r.ok()) {
      ++rejected;
      EXPECT_FALSE(r.error().message.empty());
    }
  }
  // Flips in the magic, counts, string ids or edge endpoints are fatal, so
  // a healthy validator rejects a solid share of them.
  EXPECT_GT(rejected, 0u);
}

TEST(GraphFormat, ParseNodeRefAcceptsCanonicalAndRejectsJunk) {
  auto ok = graph::parse_node_ref("finding:0");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().first, NodeType::kFinding);
  EXPECT_EQ(ok.value().second, 0u);
  ok = graph::parse_node_ref("netflow:12");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().first, NodeType::kNetflow);
  EXPECT_EQ(ok.value().second, 12u);
  EXPECT_FALSE(graph::parse_node_ref("bogus:1").ok());
  EXPECT_FALSE(graph::parse_node_ref("netflow").ok());
  EXPECT_FALSE(graph::parse_node_ref("netflow:").ok());
  EXPECT_FALSE(graph::parse_node_ref("netflow:abc").ok());
  EXPECT_FALSE(graph::parse_node_ref("").ok());
}

// --- farm --graph-out -------------------------------------------------------

Bytes read_file(const std::filesystem::path& p) {
  std::ifstream f(p, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(f),
               std::istreambuf_iterator<char>());
}

TEST(GraphExport, FarmArtifactsByteIdenticalAcrossWorkerCounts) {
  auto entries = attacks::injection_corpus();
  entries.resize(4);  // a representative shard keeps the test quick
  auto make_jobs = [&] {
    std::vector<farm::JobSpec> jobs;
    for (const auto& e : entries) {
      farm::JobSpec s;
      s.name = e.name;
      s.category = e.category;
      s.expect_flagged = e.expect_flagged;
      s.make = e.make;
      jobs.push_back(std::move(s));
    }
    return jobs;
  };

  std::filesystem::path base = ::testing::TempDir();
  std::filesystem::path d1 = base / "faros_graph_w1";
  std::filesystem::path d4 = base / "faros_graph_w4";
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d4);

  farm::FarmConfig c1;
  c1.workers = 1;
  c1.graph_out = d1.string();
  farm::TriageReport r1 = farm::Farm(c1).run(make_jobs());

  farm::FarmConfig c4;
  c4.workers = 4;
  c4.graph_out = d4.string();
  farm::TriageReport r4 = farm::Farm(c4).run(make_jobs());

  ASSERT_EQ(r1.results.size(), entries.size());
  ASSERT_EQ(r4.results.size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_TRUE(r1.results[i].graph_built) << entries[i].name;
    EXPECT_GT(r1.results[i].graph_nodes, 0u);
    EXPECT_EQ(r1.results[i].graph_nodes, r4.results[i].graph_nodes);
    EXPECT_EQ(r1.results[i].graph_edges, r4.results[i].graph_edges);
    EXPECT_EQ(r1.results[i].graph_bytes, r4.results[i].graph_bytes);

    Bytes b1 = read_file(d1 / (entries[i].name + ".fpg"));
    Bytes b4 = read_file(d4 / (entries[i].name + ".fpg"));
    ASSERT_FALSE(b1.empty()) << entries[i].name;
    EXPECT_EQ(b1, b4) << entries[i].name;
    EXPECT_EQ(b1.size(), r1.results[i].graph_bytes);

    // The artifact loads back into a queryable graph.
    auto g = graph::deserialize(ByteSpan(b1.data(), b1.size()));
    ASSERT_TRUE(g.ok()) << entries[i].name;
    EXPECT_EQ(g.value().nodes.size(), r1.results[i].graph_nodes);
  }
  std::filesystem::remove_all(d1);
  std::filesystem::remove_all(d4);
}

// --- analyst text <-> graph node-id cross-links -----------------------------

TEST(GraphAnalyst, TaintMapAndSummaryShareTheGraphIdNamespace) {
  attacks::ThreadHijackScenario sc;
  Analyzed a = analyze_graph(sc);
  ASSERT_TRUE(a.ok);

  // Every "region:<k>" label in the taint map is a graph region node, and
  // the counts agree — the text and the graph walk the same state in the
  // same order.
  size_t region_labels = 0;
  for (size_t pos = a.taint_map_text.find("region:");
       pos != std::string::npos;
       pos = a.taint_map_text.find("region:", pos + 1)) {
    ++region_labels;
  }
  EXPECT_EQ(region_labels, a.g.count(NodeType::kRegion));
  for (u32 k = 0; k < a.g.count(NodeType::kRegion); ++k) {
    EXPECT_NE(a.taint_map_text.find("region:" + std::to_string(k)),
              std::string::npos)
        << "taint map lost region:" << k;
  }

  // Every summary ref "finding:<i> ..." resolves to a graph finding node
  // whose policy matches; and the round trip back from the graph finds the
  // ref in the rendered summary.
  ASSERT_EQ(a.summary.refs.size(), a.g.count(NodeType::kFinding));
  std::string rendered = core::render_summary(a.summary);
  for (u32 i = 0; i < a.summary.refs.size(); ++i) {
    const std::string& ref = a.summary.refs[i];
    std::string prefix = "finding:" + std::to_string(i) + " ";
    ASSERT_EQ(ref.rfind(prefix, 0), 0u) << ref;
    auto id = a.g.node_id(NodeType::kFinding, i);
    ASSERT_TRUE(id.has_value());
    EXPECT_NE(ref.find(a.g.nodes[*id].name), std::string::npos)
        << ref << " vs policy " << a.g.nodes[*id].name;
    EXPECT_NE(rendered.find(ref), std::string::npos);
  }
}

// --- the 255 saturation behind the rule-grammar thresholds ------------------

TEST(GraphRules, DistinctTagCountersSaturateAt255) {
  // ProvStore meta counters are u8 and saturate: a list can hold >255
  // distinct netflow tags, but netflow_count/process_count report at most
  // 255. The rule grammar documents that distinct-netflows>=N / N > 255
  // can never fire; this pins the boundary those docs rely on.
  core::ProvStore store(/*cap=*/400);
  std::vector<core::ProvTag> flows;
  for (u16 i = 0; i < 300; ++i) flows.push_back(core::ProvTag::netflow(i));
  core::ProvListId id = store.intern(flows);
  ASSERT_NE(id, core::kEmptyProv);
  EXPECT_EQ(store.get(id).size(), 300u);  // the list itself is not clipped
  EXPECT_EQ(store.netflow_count(id), 255u);

  std::vector<core::ProvTag> procs;
  for (u16 i = 0; i < 300; ++i) procs.push_back(core::ProvTag::process(i));
  core::ProvListId pid = store.intern(procs);
  EXPECT_EQ(store.process_count(pid), 255u);

  // The grammar enforces this boundary at load time: 255 (the saturation
  // value, still reachable) parses, while a >255 threshold could never
  // fire and is rejected with an error naming the rule instead of
  // shipping a silently dead policy (see test_rules.cpp for the message
  // contents).
  EXPECT_TRUE(core::parse_ruleset_json(
                  R"({"rules":[{"id":"edge","trigger":"tainted-load",
                      "action":"flag","when":["fetch distinct-netflows>=255"]}]})")
                  .ok());
  EXPECT_FALSE(core::parse_ruleset_json(
                   R"({"rules":[{"id":"never","trigger":"tainted-load",
                       "action":"flag","when":["fetch distinct-netflows>=300"]}]})")
                   .ok());
}

}  // namespace
}  // namespace faros
