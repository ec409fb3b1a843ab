// Shared helpers for the experiment-reproduction benches: each binary
// regenerates one table or figure of the paper and prints it in a shape
// comparable to the original.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "attacks/scenarios.h"
#include "common/json.h"

namespace faros::bench {

inline void heading(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

/// Wall-clock seconds for `fn()`.
template <typename Fn>
double time_s(Fn&& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Analyze a scenario and abort loudly on harness errors (a bench must not
/// silently report a half-run experiment).
inline attacks::AnalyzedRun must_analyze(attacks::Scenario& sc,
                                         const core::Options& opts = {}) {
  auto run = attacks::analyze(sc, opts);
  if (!run.ok()) {
    std::fprintf(stderr, "FATAL: scenario '%s' failed: %s\n",
                 sc.name().c_str(), run.error().message.c_str());
    std::exit(1);
  }
  return std::move(run).take();
}

/// Median of `v` (the mean of the middle two for an even count).
inline double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// True when `chain` (a core::render_chain rendering) names each of
/// `parts` in order.
inline bool names_in_order(const std::string& chain,
                           std::initializer_list<const char*> parts) {
  size_t at = 0;
  for (const char* p : parts) {
    at = chain.find(p, at);
    if (at == std::string::npos) return false;
    at += std::char_traits<char>::length(p);
  }
  return true;
}

/// Number of process tags in a rendered chain.
inline size_t process_hops(const std::string& chain) {
  size_t n = 0;
  for (size_t at = chain.find("Process: "); at != std::string::npos;
       at = chain.find("Process: ", at + 1)) {
    ++n;
  }
  return n;
}

/// Machine-readable bench output: when FAROS_BENCH_JSON=<path> is set,
/// every json_record() call appends one JSONL line to <path> (the human
/// console output is unaffected). `fields` should already contain the
/// metric fields; the bench name is prepended so one file can aggregate a
/// whole bench sweep across binaries:
///   {"bench":"table5_performance","app":"browser","overhead":12.3}
inline void json_record(const std::string& bench_name,
                        const JsonWriter& fields) {
  static FILE* file = [] {
    const char* path = std::getenv("FAROS_BENCH_JSON");
    return path && *path ? std::fopen(path, "a") : nullptr;
  }();
  if (!file) return;
  JsonWriter line;
  line.field("bench", bench_name);
  std::string body = fields.str();  // "{...}" — splice past the brace
  std::string head = line.str();
  head.pop_back();
  if (body.size() > 2) head += "," + body.substr(1);
  else head += "}";
  std::fprintf(file, "%s\n", head.c_str());
  std::fflush(file);
}

}  // namespace faros::bench
