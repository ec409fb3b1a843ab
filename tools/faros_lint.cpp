// faros_lint — static FV32 analyzer CLI over the scenario corpus.
//
// For every corpus program: boots a scratch machine, runs scenario setup to
// extract the installed SX32 images (zero guest instructions retired), and
// runs the src/sa analyzer — CFG recovery, constant-propagation dataflow,
// and the injection-shaped lint rules. Emits deterministic JSONL: one
// "finding" line per lint hit, one "image" line per analyzed image, one
// "program" line per corpus entry, then a "lint_summary" line that scores
// the static verdicts against the corpus ground truth (tp/fp/tn/fn). The
// stream is a pure function of the corpus, so CI can diff it across runs.
//
//   faros_lint                            # full corpus to stdout
//   faros_lint --category injection
//   faros_lint --filter hollow --out lint.jsonl
//   faros_lint --list                     # print the catalogue and exit
//
// Exit code: 0 when every program analyzed, 1 on extraction errors or bad
// usage. Static findings do NOT affect the exit code — the analyzer is an
// oracle, not a gate.
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "common/json.h"
#include "common/strings.h"
#include "sa/analyzer.h"

using namespace faros;

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: faros_lint [options]\n"
               "  --jobs N         analyze at most N programs (default: all)\n"
               "  --filter STR     only programs whose name contains STR\n"
               "  --category STR   only programs in this category\n"
               "                   (injection | jit | malware | benign)\n"
               "  --out PATH       write the JSONL stream to PATH\n"
               "                   (default: stdout)\n"
               "  --risk-threshold N\n"
               "                   summed finding weight at which a program\n"
               "                   counts as static-flagged (default: 10)\n"
               "  --list           print the catalogue and exit\n"
               "  --quiet          no per-program console lines\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string filter, category, out_path;
  u64 max_jobs = 0;
  u32 risk_threshold = sa::kStaticRiskThreshold;
  bool list_only = false, quiet = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--jobs") {
      if (i + 1 >= argc || !parse_u64(argv[++i], &max_jobs)) {
        std::fprintf(stderr, "faros_lint: --jobs needs a number\n");
        usage();
        return 1;
      }
    }
    else if (arg == "--risk-threshold") {
      if (i + 1 >= argc || !parse_u32(argv[++i], &risk_threshold) ||
          risk_threshold == 0) {
        std::fprintf(stderr,
                     "faros_lint: --risk-threshold needs a number >= 1\n");
        usage();
        return 1;
      }
    }
    else if (arg == "--filter" && i + 1 < argc) filter = argv[++i];
    else if (arg == "--category" && i + 1 < argc) category = argv[++i];
    else if (arg == "--out" && i + 1 < argc) out_path = argv[++i];
    else if (arg == "--list") list_only = true;
    else if (arg == "--quiet") quiet = true;
    else if (arg == "--help" || arg == "-h") { usage(); return 0; }
    else {
      std::fprintf(stderr, "faros_lint: unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }

  std::vector<attacks::CorpusEntry> entries;
  for (auto& e : attacks::full_corpus()) {
    if (!filter.empty() && e.name.find(filter) == std::string::npos) continue;
    if (!category.empty() && e.category != category) continue;
    if (max_jobs && entries.size() >= max_jobs) break;
    entries.push_back(std::move(e));
  }
  if (entries.empty()) {
    std::fprintf(stderr, "faros_lint: no programs match\n");
    return 1;
  }

  if (list_only) {
    std::printf("%-36s %s\n", "program", "category");
    for (const auto& e : entries) {
      std::printf("%-36s %s\n", e.name.c_str(), e.category.c_str());
    }
    std::printf("%zu programs\n", entries.size());
    return 0;
  }

  FILE* out = stdout;
  if (!out_path.empty()) {
    out = std::fopen(out_path.c_str(), "w");
    if (!out) {
      std::fprintf(stderr, "faros_lint: cannot open '%s'\n", out_path.c_str());
      return 1;
    }
  }

  u32 programs = 0, flagged = 0, findings = 0, errors = 0;
  u32 tp = 0, fp = 0, tn = 0, fn = 0;  // static verdict vs expect_flagged
  u64 blocks = 0, insns = 0;
  sa::SaOptions sopts;
  sopts.risk_threshold = risk_threshold;
  for (const auto& e : entries) {
    auto sc = e.make();
    auto extracted = attacks::extract_images(*sc);
    if (!extracted.ok()) {
      ++errors;
      JsonWriter w;
      w.field("type", "error")
          .field("program", e.name)
          .field("error", extracted.error().message);
      std::fprintf(out, "%s\n", w.str().c_str());
      if (!quiet) {
        std::fprintf(stderr, "%-36s error: %s\n", e.name.c_str(),
                     extracted.error().message.c_str());
      }
      continue;
    }
    std::vector<os::Image> images;
    images.reserve(extracted.value().size());
    for (auto& x : extracted.value()) images.push_back(std::move(x.image));

    sa::ProgramReport rep = sa::analyze_images(e.name, images, sopts);
    ++programs;
    if (rep.flagged()) ++flagged;
    if (e.expect_flagged) rep.flagged() ? ++tp : ++fn;
    else rep.flagged() ? ++fp : ++tn;
    findings += rep.findings;
    blocks += rep.blocks;
    insns += rep.insns;

    for (const auto& ir : rep.per_image) {
      for (const auto& f : ir.findings) {
        std::fprintf(out, "%s\n",
                     sa::finding_jsonl(e.name, ir.image, f).c_str());
      }
      std::fprintf(out, "%s\n", sa::image_jsonl(e.name, ir).c_str());
    }
    std::fprintf(out, "%s\n", sa::program_jsonl(e.category, rep).c_str());

    if (!quiet) {
      std::fprintf(stderr, "%-36s %-10s %2u images %4u blocks risk %3u%s\n",
                   e.name.c_str(), e.category.c_str(), rep.images, rep.blocks,
                   rep.risk, rep.flagged() ? "  FLAGGED" : "");
    }
  }

  JsonWriter w;
  w.field("type", "lint_summary")
      .field("programs", programs)
      .field("flagged", flagged)
      .field("findings", findings)
      .field("blocks", blocks)
      .field("insns", insns)
      .field("errors", errors)
      .field("tp", tp)
      .field("fp", fp)
      .field("tn", tn)
      .field("fn", fn);
  std::fprintf(out, "%s\n", w.str().c_str());
  if (out != stdout) std::fclose(out);

  if (!quiet) {
    std::fprintf(stderr,
                 "%u programs: %u static-flagged, %u findings, %u errors\n"
                 "static vs ground truth: %u TP, %u FP, %u TN, %u FN\n",
                 programs, flagged, findings, errors, tp, fp, tn, fn);
  }
  return errors == 0 ? 0 : 1;
}
