// bench_sa_analyze — throughput of the static FV32 analyzer (src/sa) over
// the full scenario corpus: images/sec and basic blocks/sec for the whole
// pipeline (image extraction excluded; decode + CFG recovery + call graph,
// summaries and dataflow to the indirect-target fixpoint included). The CI
// gate catches an accidentally superlinear pass.
#include "attacks/corpus.h"
#include "bench_util.h"
#include "sa/analyzer.h"

using namespace faros;

int main() {
  bench::heading("Static analyzer throughput (src/sa) — full corpus");

  // Extract once, outside the timed region: the bench measures the
  // analyzer, not scenario setup.
  struct Program {
    std::string name;
    std::vector<os::Image> images;
  };
  std::vector<Program> programs;
  u32 total_images = 0;
  for (const auto& e : attacks::full_corpus()) {
    auto sc = e.make();
    auto extracted = attacks::extract_images(*sc);
    if (!extracted.ok()) {
      std::fprintf(stderr, "FATAL: extract '%s' failed: %s\n", e.name.c_str(),
                   extracted.error().message.c_str());
      return 1;
    }
    Program p;
    p.name = e.name;
    for (auto& x : extracted.value()) p.images.push_back(std::move(x.image));
    total_images += static_cast<u32>(p.images.size());
    programs.push_back(std::move(p));
  }

  constexpr u32 kRounds = 20;
  u64 blocks = 0, insns = 0;
  double secs = bench::time_s([&] {
    for (u32 round = 0; round < kRounds; ++round) {
      blocks = insns = 0;
      for (const auto& p : programs) {
        sa::ProgramReport rep = sa::analyze_images(p.name, p.images);
        blocks += rep.blocks;
        insns += rep.insns;
      }
    }
  });

  const double analyses = static_cast<double>(programs.size()) * kRounds;
  const double images_s = total_images * kRounds / secs;
  const double blocks_s = static_cast<double>(blocks) * kRounds / secs;
  const double insns_s = static_cast<double>(insns) * kRounds / secs;
  std::printf("%zu programs, %u images, %llu blocks, %llu insns per round\n",
              programs.size(), total_images,
              static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(insns));
  std::printf("%u rounds in %.3fs: %.0f programs/s, %.0f images/s, "
              "%.0f blocks/s, %.2fM insns/s\n",
              kRounds, secs, analyses / secs, images_s, blocks_s,
              insns_s / 1e6);

  JsonWriter w;
  w.field("programs", static_cast<u64>(programs.size()))
      .field("images", total_images)
      .field("blocks", blocks)
      .field("insns", insns)
      .field("rounds", kRounds)
      .field("seconds", secs)
      .field("images_per_s", images_s)
      .field("blocks_per_s", blocks_s)
      .field("insns_per_s", insns_s);
  bench::json_record("sa_analyze", w);

  // Throughput gate (FAROS_BENCH_GATE): the analyzer must stay within 2x
  // of the committed baseline (BENCH_shadow.json, sa_analyze_pr9) — the
  // tripwire for an accidentally superlinear summary/callgraph pass. The
  // baseline is the slowest of three CI-class runs, so half of it is a
  // regression, not host jitter.
  if (std::getenv("FAROS_BENCH_GATE")) {
    constexpr double kBaselineInsnsPerS = 2.4e6;
    std::printf("sa-analyze gate: %.2fM insns/s (floor %.2fM = baseline/2)\n",
                insns_s / 1e6, kBaselineInsnsPerS / 2 / 1e6);
    if (insns_s < kBaselineInsnsPerS / 2) {
      std::fprintf(stderr,
                   "FAIL: sa analyzer throughput regressed >2x "
                   "(%.2fM insns/s < %.2fM floor)\n",
                   insns_s / 1e6, kBaselineInsnsPerS / 2 / 1e6);
      return 1;
    }
  }
  return 0;
}
