// obs — low-overhead metrics + tracing for the DIFT hot path and the farm.
//
// Hardware-DIFT designs treat counters for taint-check hits, shadow traffic
// and propagation stalls as first-class architecture (Jahanshahi's DIFT
// survey; Wahab et al.'s ARM IFT coprocessor expose them as MMIO registers);
// this is the software analogue. The engine's caches and fast paths are
// useless to reason about blind — every perf PR needs to see hit rates, not
// guess them — and the provenance story FAROS sells to the analyst deserves
// the same treatment for the engine itself.
//
// Design (the "sink model"):
//  * A MetricSink is a flat array of u64 cells — one per Ctr — plus a small
//    array of timer accumulators. It is plain data: no locks, no atomics.
//    Each FarosEngine owns at most one sink, and an engine is single-
//    threaded by construction (one machine per farm job), so increments
//    are unsynchronised adds.
//  * A Counter is a bound handle: a raw pointer to one sink cell, or null
//    when metrics are off. inc() is "branch on null, then one add" — the
//    disabled cost is a predicted-not-taken test, and the enabled cost is
//    one increment on a cache-hot line. Hot structures (ShadowMemory,
//    ProvStore) hold pre-bound Counters so the hot path never does enum
//    indexing or sink lookups.
//  * A ScopedTimer brackets a region and adds elapsed nanoseconds to a Tmr
//    cell on destruction. Timers are wall-clock and therefore
//    nondeterministic: they are deliberately kept OUT of the deterministic
//    metrics serialisation (farm/results) and only surface in summary
//    records, mirroring how JobResult::wall_ms is handled.
//
// Determinism: every Ctr counts an event of the deterministic replay
// (cache hits, page allocations, retired instructions, taint-source bytes),
// so two replays of the same recording produce identical counter arrays —
// the property the farm's metrics.jsonl tests pin down.
#pragma once

#include <array>
#include <chrono>

#include "common/types.h"

namespace faros {
class JsonWriter;
}

namespace faros::obs {

/// Counter taxonomy. Grouped by the subsystem that owns the increment;
/// each counter has one row (name, kind) in obs.cpp's kCtrTable.
enum class Ctr : u32 {
  // --- ShadowMemory (src/core/shadow.h) ---
  kShadowFrameCacheHit = 0,  // directory probe answered by the 1-entry cache
  kShadowFrameCacheMiss,     // probe fell through to the hash directory
  kShadowPageAlloc,          // shadow page materialised
  kShadowPageDrop,           // shadow page freed (clear_range / zero-taint)

  // --- FarosEngine fetch-provenance cache (src/core/engine.cpp) ---
  kFetchCacheHit,   // fetch provenance served by the direct-mapped cache
  kFetchCacheMiss,  // fetch walked the instruction bytes

  // --- ProvStore memo tables (src/core/provenance.h) ---
  kMergeMemoHit,
  kMergeMemoMiss,
  kAppendMemoHit,
  kAppendMemoMiss,

  // --- per-replay engine totals (copied from EngineStats at snapshot) ---
  kInsnsRetired,
  kLoads,
  kStores,
  kTaintedFetches,
  kTaintedLoads,   // loads whose source bytes carried provenance
  kTaintedStores,  // stores that wrote at least one tainted byte
  kPolicyEvals,

  // --- taint-source events (syscall-driven monitor hooks) ---
  kTaintSrcEvents,        // every tag-insertion hook invocation
  kNetflowSrcBytes,       // packet bytes delivered into guest buffers
  kFileReadSrcBytes,      // file bytes read into memory
  kFileWriteSrcBytes,     // buffer bytes written to files
  kImageMapSrcBytes,      // image bytes tainted at map time
  kExportTagBytes,        // export-table / IAT bytes tagged

  // --- rule engine (src/core/rules.h), one eval counter per trigger ---
  kRuleEvalsTaintedLoad,    // rule evaluations at tainted-load sites
  kRuleEvalsTaintedStore,   // ... at tainted-store sites
  kRuleEvalsExecPageWrite,  // ... at exec-page-write sites
  kRuleEvalsTaintedFetch,   // ... at tainted-fetch sites
  kRuleEvalsSyscallArg,     // ... at syscall-arg sites
  kRuleMatches,             // rules whose predicate conjunction held

  // --- block-translation cache (src/vm/btcache.h + engine elision) ---
  kBtTranslate,     // blocks decoded into the cache
  kBtHit,           // block dispatches served from the cache
  kBtEvictSmc,      // blocks evicted by a write into their code frame
  kBtEvictCr3,      // blocks evicted by process-exit / frame recycling
  kBtElidedBlocks,  // offered blocks the engine ran uninstrumented
  kBtGuardFail,     // elision declined: the sum of the three reasons below
  kBtElidedInsns,   // instructions retired by approved elisions
  kBtDeclineTaintedRead,  // a register the block reads carries provenance
  kBtDeclineSyscallArg,   // SYSCALL tail with tainted r1..r4, rule bound
  kBtDeclineFetchRule,    // tainted fetches with a tainted-fetch rule bound
  kBtNotOffered,    // full-length dispatches of blocks that are not
                    // elidable_ops (vm::BlockCacheStats::not_offered)
  kBtGranted,       // elided blocks that ran on a grant, with no engine
                    // call (vm::ElisionTally::blocks); in bt_elided_blocks
  kBtChained,       // dispatches reached through a successor link, with no
                    // translation or lookup (vm::BlockCacheStats::chained);
                    // in bt_hit

  // --- snapshot/COW guest cloning (os/snapshot.h; farm clone-per-job) ---
  kSnapClone,        // machines booted from the shared snapshot (1 per
                     // farm job with cloning on)
  kCowFault,         // frames copied private on first write
  kSnapSharedPages,  // frames still snapshot-backed when the job finished

  // --- scheduler and interpreter TLB (os/machine.h, vm/cpu.h; farm fold
  //     from the analyzed live machine only) ---
  kSchedRounds,  // scheduling rounds (one quantum or less each)
  kTlbMiss,      // interpreter TLB misses (page walks)

  kCount,
};

inline constexpr u32 kCtrCount = static_cast<u32>(Ctr::kCount);

/// Stable snake_case name for serialisation ("shadow_frame_cache_hit", ...).
const char* ctr_name(Ctr c);

/// What a counter counts, for comparing two runs of one job that take
/// different paths to the same analysis:
///  * kSemantic: a fact of the analyzed run (instructions, accesses, taint
///    sources, shadow pages, rule evaluations, scheduling rounds); equal
///    with the block cache on and off, on a clone and on a cold boot.
///  * kCacheStat: how a cache or fast path served the run (shadow frame
///    cache and clean-skip probes, fetch cache, ProvStore memos, block
///    cache and elision, interpreter TLB); moves with the block cache.
///  * kClone: how the machine was made (snapshot clone vs cold boot).
enum class CtrKind : u8 { kSemantic, kCacheStat, kClone };
CtrKind ctr_kind(Ctr c);

/// Timer taxonomy (wall-clock accumulators; nondeterministic by nature).
enum class Tmr : u32 {
  kRecord = 0,  // analyzed live run of a farm job (it also records)
  kCount,
};

inline constexpr u32 kTmrCount = static_cast<u32>(Tmr::kCount);

const char* tmr_name(Tmr t);

struct MetricSnapshot;

/// Appends one `"<ctr_name>":<value>` field per counter to `w`, in enum
/// order — the stable schema every metrics JSONL consumer relies on.
/// Timers are deliberately not emitted (wall-clock, nondeterministic).
void append_counter_fields(JsonWriter& w, const MetricSnapshot& m);

/// Value snapshot of a sink: what JobResult carries and the results layer
/// serialises. Counters are deterministic; timer_ns is wall-clock and must
/// never enter a determinism-checked byte stream.
struct MetricSnapshot {
  bool collected = false;
  std::array<u64, kCtrCount> counters{};
  std::array<u64, kTmrCount> timer_ns{};

  u64 operator[](Ctr c) const { return counters[static_cast<u32>(c)]; }

  /// Element-wise accumulation (farm aggregation across jobs).
  void merge(const MetricSnapshot& other) {
    if (!other.collected) return;
    collected = true;
    for (u32 i = 0; i < kCtrCount; ++i) counters[i] += other.counters[i];
    for (u32 i = 0; i < kTmrCount; ++i) timer_ns[i] += other.timer_ns[i];
  }
};

/// The metric store: one flat allocation of cells. Single-threaded by
/// contract (each engine/job owns its own sink).
class MetricSink {
 public:
  /// Address of a counter cell, for Counter binding.
  u64* cell(Ctr c) { return &counters_[static_cast<u32>(c)]; }

  void add(Ctr c, u64 n = 1) { counters_[static_cast<u32>(c)] += n; }
  void set(Ctr c, u64 v) { counters_[static_cast<u32>(c)] = v; }
  u64 value(Ctr c) const { return counters_[static_cast<u32>(c)]; }

  void add_timer_ns(Tmr t, u64 ns) { timer_ns_[static_cast<u32>(t)] += ns; }
  u64 timer_ns(Tmr t) const { return timer_ns_[static_cast<u32>(t)]; }

  MetricSnapshot snapshot() const {
    MetricSnapshot s;
    s.collected = true;
    s.counters = counters_;
    s.timer_ns = timer_ns_;
    return s;
  }

  void reset() {
    counters_.fill(0);
    timer_ns_.fill(0);
  }

 private:
  std::array<u64, kCtrCount> counters_{};
  std::array<u64, kTmrCount> timer_ns_{};
};

/// Bound counter handle. Default-constructed (or bound to a null sink) it
/// is a no-op; bound to a sink it increments one pre-resolved cell.
class Counter {
 public:
  Counter() = default;
  Counter(MetricSink* sink, Ctr id)
      : cell_(sink ? sink->cell(id) : nullptr) {}

  void inc(u64 n = 1) {
    if (cell_) *cell_ += n;
  }

 private:
  u64* cell_ = nullptr;
};

/// RAII wall-clock timer; adds elapsed ns to `id` on scope exit. A null
/// sink means no clock is ever read.
class ScopedTimer {
 public:
  ScopedTimer(MetricSink* sink, Tmr id) : sink_(sink), id_(id) {
    if (sink_) start_ = std::chrono::steady_clock::now();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (sink_) {
      auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
      sink_->add_timer_ns(id_, static_cast<u64>(ns));
    }
  }

 private:
  MetricSink* sink_ = nullptr;
  Tmr id_ = Tmr::kRecord;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace faros::obs
