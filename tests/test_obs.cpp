// The obs metrics layer: counter/sink/timer semantics, name-table
// integrity, serialisation schema, the instrumented hot paths of
// ShadowMemory / ProvStore / FarosEngine, and the determinism contract —
// two identical replays produce identical counter arrays.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "attacks/scenarios.h"
#include "common/json.h"
#include "core/engine.h"
#include "core/provenance.h"
#include "core/shadow.h"
#include "farm/farm.h"
#include "obs/obs.h"

namespace faros {
namespace {

using obs::Ctr;
using obs::MetricSink;
using obs::MetricSnapshot;
using obs::Tmr;

TEST(ObsCounter, UnboundIsANoop) {
  obs::Counter c;
  c.inc();
  c.inc(1000);  // must not crash; nothing to observe
  obs::Counter null_bound(nullptr, Ctr::kLoads);
  null_bound.inc();
}

TEST(ObsCounter, BoundIncrementsItsCell) {
  MetricSink sink;
  obs::Counter c(&sink, Ctr::kLoads);
  c.inc();
  c.inc(41);
  EXPECT_EQ(sink.value(Ctr::kLoads), 42u);
  EXPECT_EQ(sink.value(Ctr::kStores), 0u);
}

TEST(ObsSink, AddSetValueAndReset) {
  MetricSink sink;
  sink.add(Ctr::kStores, 5);
  sink.add(Ctr::kStores);
  EXPECT_EQ(sink.value(Ctr::kStores), 6u);
  sink.set(Ctr::kStores, 3);
  EXPECT_EQ(sink.value(Ctr::kStores), 3u);
  sink.add_timer_ns(Tmr::kRecord, 100);
  sink.reset();
  EXPECT_EQ(sink.value(Ctr::kStores), 0u);
  EXPECT_EQ(sink.timer_ns(Tmr::kRecord), 0u);
}

TEST(ObsSnapshot, MergeAccumulatesAndTracksCollected) {
  MetricSnapshot a;  // collected = false
  MetricSink sink;
  sink.add(Ctr::kLoads, 7);
  MetricSnapshot b = sink.snapshot();
  ASSERT_TRUE(b.collected);

  a.merge(b);
  EXPECT_TRUE(a.collected);
  EXPECT_EQ(a[Ctr::kLoads], 7u);
  a.merge(b);
  EXPECT_EQ(a[Ctr::kLoads], 14u);

  // Merging a never-collected snapshot changes nothing.
  MetricSnapshot empty;
  a.merge(empty);
  EXPECT_EQ(a[Ctr::kLoads], 14u);
}

TEST(ObsScopedTimer, AccumulatesOnlyWhenBound) {
  MetricSink sink;
  sink.add_timer_ns(Tmr::kRecord, 7);
  { obs::ScopedTimer t(nullptr, Tmr::kRecord); }
  EXPECT_EQ(sink.timer_ns(Tmr::kRecord), 7u);
  { obs::ScopedTimer t(&sink, Tmr::kRecord); }
  // steady_clock may be coarse, but a completed scope never subtracts.
  EXPECT_GE(sink.timer_ns(Tmr::kRecord), 7u);
}

TEST(ObsNames, UniqueNonEmptyAndStable) {
  std::set<std::string> seen;
  for (u32 i = 0; i < obs::kCtrCount; ++i) {
    std::string name = obs::ctr_name(static_cast<Ctr>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?") << "missing name for counter " << i;
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_STREQ(obs::ctr_name(Ctr::kInsnsRetired), "insns_retired");
  EXPECT_STREQ(obs::tmr_name(Tmr::kRecord), "record_ns");
}

TEST(ObsKinds, CacheProbeCountersAreCacheStatistics) {
  // Elision changes how many probes a run makes: a cache statistic, not a
  // fact of the analysis.
  EXPECT_EQ(obs::ctr_kind(Ctr::kShadowFrameCacheHit),
            obs::CtrKind::kCacheStat);
  EXPECT_EQ(obs::ctr_kind(Ctr::kBtHit), obs::CtrKind::kCacheStat);
  EXPECT_EQ(obs::ctr_kind(Ctr::kTlbMiss), obs::CtrKind::kCacheStat);
  EXPECT_EQ(obs::ctr_kind(Ctr::kInsnsRetired), obs::CtrKind::kSemantic);
  EXPECT_EQ(obs::ctr_kind(Ctr::kShadowPageAlloc), obs::CtrKind::kSemantic);
  EXPECT_EQ(obs::ctr_kind(Ctr::kSchedRounds), obs::CtrKind::kSemantic);
  EXPECT_EQ(obs::ctr_kind(Ctr::kSnapClone), obs::CtrKind::kClone);
  EXPECT_EQ(obs::ctr_kind(Ctr::kCowFault), obs::CtrKind::kClone);
}

TEST(ObsNames, AppendCounterFieldsEmitsEveryCounterInOrder) {
  MetricSink sink;
  sink.add(Ctr::kLoads, 3);
  MetricSnapshot s = sink.snapshot();
  JsonWriter w;
  obs::append_counter_fields(w, s);
  std::string out = w.str();
  size_t last = 0;
  for (u32 i = 0; i < obs::kCtrCount; ++i) {
    std::string key = std::string("\"") +
                      obs::ctr_name(static_cast<Ctr>(i)) + "\":";
    size_t pos = out.find(key, last);
    ASSERT_NE(pos, std::string::npos) << key << " missing/out of order";
    last = pos;
  }
  EXPECT_NE(out.find("\"loads\":3"), std::string::npos);
  EXPECT_EQ(out.find("record_ns"), std::string::npos);  // no timers
}

TEST(ObsShadow, CountsCacheTrafficAndPageLifecycle) {
  MetricSink sink;
  core::ShadowMemory s;
  s.bind_obs(&sink);

  // First touch of a frame misses the one-entry cache and allocates.
  s.set(0x1000, 7);
  EXPECT_EQ(sink.value(Ctr::kShadowPageAlloc), 1u);
  u64 miss0 = sink.value(Ctr::kShadowFrameCacheMiss);
  EXPECT_GE(miss0, 1u);

  // Re-reading the same frame hits the cache.
  u64 hit0 = sink.value(Ctr::kShadowFrameCacheHit);
  (void)s.get(0x1004);
  (void)s.get(0x1008);
  EXPECT_EQ(sink.value(Ctr::kShadowFrameCacheHit), hit0 + 2);
  EXPECT_EQ(sink.value(Ctr::kShadowFrameCacheMiss), miss0);

  // Clearing the last tainted byte drops the page.
  s.set(0x1000, core::kEmptyProv);
  EXPECT_EQ(sink.value(Ctr::kShadowPageDrop), 1u);
}

TEST(ObsProvStore, CountsMemoHitsAndMisses) {
  MetricSink sink;
  core::ProvStore store;
  store.bind_obs(&sink);
  auto a = store.intern({core::ProvTag::netflow(1)});
  auto b = store.intern({core::ProvTag::process(2)});

  EXPECT_EQ(store.merge(a, b), store.merge(a, b));
  EXPECT_EQ(sink.value(Ctr::kMergeMemoMiss), 1u);
  EXPECT_EQ(sink.value(Ctr::kMergeMemoHit), 1u);
  // Trivial-identity merges bypass the memo and count nothing.
  (void)store.merge(a, a);
  (void)store.merge(a, core::kEmptyProv);
  EXPECT_EQ(sink.value(Ctr::kMergeMemoHit), 1u);

  (void)store.append(a, core::ProvTag::process(9));
  (void)store.append(a, core::ProvTag::process(9));
  EXPECT_EQ(sink.value(Ctr::kAppendMemoMiss), 1u);
  EXPECT_EQ(sink.value(Ctr::kAppendMemoHit), 1u);
}

TEST(ObsEngine, SnapshotFoldsEngineStatsAndRespectsToggle) {
  attacks::HollowingScenario sc;
  auto run = attacks::record_run(sc);
  ASSERT_TRUE(run.ok());

  auto replay = [&](bool collect) {
    core::Options opts;
    opts.collect_metrics = collect;
    attacks::Analysis a(opts);
    EXPECT_TRUE(a.start(sc, &run.value().log).ok());
    a.run(sc.budget());
    return std::make_pair(a.metrics(), a.engine().stats().insns_seen);
  };

  auto [off, off_insns] = replay(false);
  EXPECT_FALSE(off.collected);
  EXPECT_EQ(off[Ctr::kInsnsRetired], 0u);

  auto [on, on_insns] = replay(true);
  ASSERT_TRUE(on.collected);
  EXPECT_EQ(on[Ctr::kInsnsRetired], on_insns);
  EXPECT_GT(on[Ctr::kInsnsRetired], 0u);
  EXPECT_EQ(on_insns, off_insns);  // metrics must not perturb the run
  EXPECT_GT(on[Ctr::kTaintSrcEvents], 0u);
  EXPECT_GT(on[Ctr::kShadowPageAlloc], 0u);
}

TEST(ObsDeterminism, TwoIdenticalReplaysProduceIdenticalCounters) {
  farm::Farm f;
  farm::JobSpec spec;
  spec.name = "hollowing";
  spec.make = [] { return std::make_unique<attacks::HollowingScenario>(); };

  farm::JobResult r1 = f.run_job(spec);
  farm::JobResult r2 = f.run_job(spec);
  ASSERT_EQ(r1.status, farm::JobStatus::kOk) << r1.error;
  ASSERT_EQ(r2.status, farm::JobStatus::kOk) << r2.error;
  ASSERT_TRUE(r1.metrics.collected);
  ASSERT_TRUE(r2.metrics.collected);
  for (u32 i = 0; i < obs::kCtrCount; ++i) {
    EXPECT_EQ(r1.metrics.counters[i], r2.metrics.counters[i])
        << obs::ctr_name(static_cast<Ctr>(i));
  }
  EXPECT_GT(r1.metrics[Ctr::kInsnsRetired], 0u);
}

}  // namespace
}  // namespace faros
