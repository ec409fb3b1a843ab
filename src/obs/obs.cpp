#include "obs/obs.h"

#include "common/json.h"

namespace faros::obs {

const char* ctr_name(Ctr c) {
  switch (c) {
    case Ctr::kShadowFrameCacheHit: return "shadow_frame_cache_hit";
    case Ctr::kShadowFrameCacheMiss: return "shadow_frame_cache_miss";
    case Ctr::kShadowPageAlloc: return "shadow_page_alloc";
    case Ctr::kShadowPageDrop: return "shadow_page_drop";
    case Ctr::kShadowCleanSkip: return "shadow_clean_skip";
    case Ctr::kFetchCacheHit: return "fetch_cache_hit";
    case Ctr::kFetchCacheMiss: return "fetch_cache_miss";
    case Ctr::kMergeMemoHit: return "merge_memo_hit";
    case Ctr::kMergeMemoMiss: return "merge_memo_miss";
    case Ctr::kAppendMemoHit: return "append_memo_hit";
    case Ctr::kAppendMemoMiss: return "append_memo_miss";
    case Ctr::kInsnsRetired: return "insns_retired";
    case Ctr::kLoads: return "loads";
    case Ctr::kStores: return "stores";
    case Ctr::kTaintedFetches: return "tainted_fetches";
    case Ctr::kTaintedLoads: return "tainted_loads";
    case Ctr::kTaintedStores: return "tainted_stores";
    case Ctr::kPolicyEvals: return "policy_evals";
    case Ctr::kTaintSrcEvents: return "taint_src_events";
    case Ctr::kNetflowSrcBytes: return "netflow_src_bytes";
    case Ctr::kFileReadSrcBytes: return "file_read_src_bytes";
    case Ctr::kFileWriteSrcBytes: return "file_write_src_bytes";
    case Ctr::kImageMapSrcBytes: return "image_map_src_bytes";
    case Ctr::kExportTagBytes: return "export_tag_bytes";
    case Ctr::kSaImagesAnalyzed: return "sa_images_analyzed";
    case Ctr::kSaBlocksRecovered: return "sa_blocks_recovered";
    case Ctr::kSaInsnsDecoded: return "sa_insns_decoded";
    case Ctr::kSaIndirectsResolved: return "sa_indirects_resolved";
    case Ctr::kSaRulesFired: return "sa_rules_fired";
    case Ctr::kRuleEvalsTaintedLoad: return "rule_evals_tainted_load";
    case Ctr::kRuleEvalsTaintedStore: return "rule_evals_tainted_store";
    case Ctr::kRuleEvalsExecPageWrite: return "rule_evals_exec_page_write";
    case Ctr::kRuleEvalsTaintedFetch: return "rule_evals_tainted_fetch";
    case Ctr::kRuleEvalsSyscallArg: return "rule_evals_syscall_arg";
    case Ctr::kRuleMatches: return "rule_matches";
    case Ctr::kBtTranslate: return "bt_translate";
    case Ctr::kBtHit: return "bt_hit";
    case Ctr::kBtEvictSmc: return "bt_evict_smc";
    case Ctr::kBtEvictCr3: return "bt_evict_cr3";
    case Ctr::kBtElidedBlocks: return "bt_elided_blocks";
    case Ctr::kBtGuardFail: return "bt_guard_fail";
    case Ctr::kBtElidedInsns: return "bt_elided_insns";
    case Ctr::kBtHintBlocks: return "bt_hint_blocks";
    case Ctr::kBtDeclineTaintedRead: return "bt_decline_tainted_read";
    case Ctr::kBtDeclineSyscallArg: return "bt_decline_syscall_arg";
    case Ctr::kBtDeclineFetchRule: return "bt_decline_fetch_rule";
    case Ctr::kBtNotOffered: return "bt_not_offered";
    case Ctr::kSnapClone: return "snap_clone";
    case Ctr::kCowFault: return "cow_faults";
    case Ctr::kSnapSharedPages: return "snap_shared_pages";
    case Ctr::kSchedRounds: return "sched_rounds";
    case Ctr::kTlbMiss: return "tlb_misses";
    case Ctr::kCount: break;
  }
  return "?";
}

const char* tmr_name(Tmr t) {
  switch (t) {
    case Tmr::kRecord: return "record_ns";
    case Tmr::kStatic: return "static_ns";
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
