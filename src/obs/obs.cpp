#include "obs/obs.h"

#include <iterator>

#include "common/json.h"

namespace faros::obs {

namespace {

struct CtrRow {
  Ctr ctr;
  const char* name;  // stable snake_case metrics key
  CtrKind kind;
};

// One row per counter, in enum order; a new counter is one row here.
constexpr CtrRow kCtrTable[] = {
    {Ctr::kShadowFrameCacheHit, "shadow_frame_cache_hit", CtrKind::kCacheStat},
    {Ctr::kShadowFrameCacheMiss, "shadow_frame_cache_miss",
     CtrKind::kCacheStat},
    {Ctr::kShadowPageAlloc, "shadow_page_alloc", CtrKind::kSemantic},
    {Ctr::kShadowPageDrop, "shadow_page_drop", CtrKind::kSemantic},
    {Ctr::kFetchCacheHit, "fetch_cache_hit", CtrKind::kCacheStat},
    {Ctr::kFetchCacheMiss, "fetch_cache_miss", CtrKind::kCacheStat},
    {Ctr::kMergeMemoHit, "merge_memo_hit", CtrKind::kCacheStat},
    {Ctr::kMergeMemoMiss, "merge_memo_miss", CtrKind::kCacheStat},
    {Ctr::kAppendMemoHit, "append_memo_hit", CtrKind::kCacheStat},
    {Ctr::kAppendMemoMiss, "append_memo_miss", CtrKind::kCacheStat},
    {Ctr::kInsnsRetired, "insns_retired", CtrKind::kSemantic},
    {Ctr::kLoads, "loads", CtrKind::kSemantic},
    {Ctr::kStores, "stores", CtrKind::kSemantic},
    {Ctr::kTaintedFetches, "tainted_fetches", CtrKind::kSemantic},
    {Ctr::kTaintedLoads, "tainted_loads", CtrKind::kSemantic},
    {Ctr::kTaintedStores, "tainted_stores", CtrKind::kSemantic},
    {Ctr::kPolicyEvals, "policy_evals", CtrKind::kSemantic},
    {Ctr::kTaintSrcEvents, "taint_src_events", CtrKind::kSemantic},
    {Ctr::kNetflowSrcBytes, "netflow_src_bytes", CtrKind::kSemantic},
    {Ctr::kFileReadSrcBytes, "file_read_src_bytes", CtrKind::kSemantic},
    {Ctr::kFileWriteSrcBytes, "file_write_src_bytes", CtrKind::kSemantic},
    {Ctr::kImageMapSrcBytes, "image_map_src_bytes", CtrKind::kSemantic},
    {Ctr::kExportTagBytes, "export_tag_bytes", CtrKind::kSemantic},
    {Ctr::kRuleEvalsTaintedLoad, "rule_evals_tainted_load", CtrKind::kSemantic},
    {Ctr::kRuleEvalsTaintedStore, "rule_evals_tainted_store",
     CtrKind::kSemantic},
    {Ctr::kRuleEvalsExecPageWrite, "rule_evals_exec_page_write",
     CtrKind::kSemantic},
    {Ctr::kRuleEvalsTaintedFetch, "rule_evals_tainted_fetch",
     CtrKind::kSemantic},
    {Ctr::kRuleEvalsSyscallArg, "rule_evals_syscall_arg", CtrKind::kSemantic},
    {Ctr::kRuleMatches, "rule_matches", CtrKind::kSemantic},
    {Ctr::kBtTranslate, "bt_translate", CtrKind::kCacheStat},
    {Ctr::kBtHit, "bt_hit", CtrKind::kCacheStat},
    {Ctr::kBtEvictSmc, "bt_evict_smc", CtrKind::kCacheStat},
    {Ctr::kBtEvictCr3, "bt_evict_cr3", CtrKind::kCacheStat},
    {Ctr::kBtElidedBlocks, "bt_elided_blocks", CtrKind::kCacheStat},
    {Ctr::kBtGuardFail, "bt_guard_fail", CtrKind::kCacheStat},
    {Ctr::kBtElidedInsns, "bt_elided_insns", CtrKind::kCacheStat},
    {Ctr::kBtDeclineTaintedRead, "bt_decline_tainted_read",
     CtrKind::kCacheStat},
    {Ctr::kBtDeclineSyscallArg, "bt_decline_syscall_arg", CtrKind::kCacheStat},
    {Ctr::kBtDeclineFetchRule, "bt_decline_fetch_rule", CtrKind::kCacheStat},
    {Ctr::kBtNotOffered, "bt_not_offered", CtrKind::kCacheStat},
    {Ctr::kBtGranted, "bt_granted", CtrKind::kCacheStat},
    {Ctr::kBtChained, "bt_chained", CtrKind::kCacheStat},
    {Ctr::kSnapClone, "snap_clone", CtrKind::kClone},
    {Ctr::kCowFault, "cow_faults", CtrKind::kClone},
    {Ctr::kSnapSharedPages, "snap_shared_pages", CtrKind::kClone},
    {Ctr::kSchedRounds, "sched_rounds", CtrKind::kSemantic},
    {Ctr::kTlbMiss, "tlb_misses", CtrKind::kCacheStat},
};
static_assert(std::size(kCtrTable) == kCtrCount, "one row per Ctr");

constexpr bool rows_in_enum_order() {
  for (u32 i = 0; i < kCtrCount; ++i) {
    if (kCtrTable[i].ctr != static_cast<Ctr>(i)) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "kCtrTable rows follow the Ctr enum");

}  // namespace

const char* ctr_name(Ctr c) {
  const u32 i = static_cast<u32>(c);
  return i < kCtrCount ? kCtrTable[i].name : "?";
}

CtrKind ctr_kind(Ctr c) {
  const u32 i = static_cast<u32>(c);
  return i < kCtrCount ? kCtrTable[i].kind : CtrKind::kSemantic;
}

const char* tmr_name(Tmr t) {
  switch (t) {
    case Tmr::kRecord: return "record_ns";
    case Tmr::kCount: break;
  }
  return "?";
}

void append_counter_fields(JsonWriter& w, const MetricSnapshot& m) {
  for (u32 i = 0; i < kCtrCount; ++i) {
    w.field(ctr_name(static_cast<Ctr>(i)), m.counters[i]);
  }
}

}  // namespace faros::obs
