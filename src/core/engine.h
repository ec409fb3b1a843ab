// FarosEngine — the paper's contribution, assembled: a whole-system
// DIFT-provenance plugin that attaches to the Machine as both an
// instruction-level hook (vm::ExecHooks, for Table-I propagation) and a
// semantic-event monitor (osi::GuestMonitor, for tag insertion), and flags
// in-memory injection attacks via tag-confluence policies.
//
// Tag insertion (paper Section V-A):
//  * packet delivered into a guest buffer  -> netflow tag (+ process tag)
//  * file bytes loaded into memory         -> file tag (name + version)
//  * buffer written into a file            -> file tag on the buffer,
//                                             provenance persisted per byte
//                                             in the file shadow
//  * image mapped from the VFS             -> file tag over the image
//  * module export table materialised      -> export-table tag over the
//                                             function-pointer bytes
//  * process touches a tainted byte (fetch, load, store, syscall buffer)
//                                          -> that process' tag appended
//
// Propagation (paper Table I): copy for MOV/LD/ST, union for arithmetic,
// delete for constants/zero idioms. Address/control dependencies are NOT
// globally propagated — that is the paper's core design decision; an
// optional address-dependency mode exists for the overtainting ablation.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/report.h"
#include "core/rules.h"
#include "core/shadow.h"
#include "introspection/monitor.h"
#include "obs/obs.h"
#include "os/kernel.h"
#include "vm/cpu.h"

namespace faros::core {

/// Exhaustion-attack guard: bound on distinct interned provenance lists
/// (Section VI-D); past it the store degrades gracefully.
inline constexpr u32 kProvStoreMaxLists = 1u << 22;

struct Options {
  // Tag-type toggles (ablation bench disables one at a time).
  bool track_netflow = true;
  bool track_file = true;
  bool track_process = true;
  bool track_export = true;
  /// Taint image bytes with the backing file's tag when mapped.
  bool taint_mapped_images = true;

  /// Propagate through address dependencies (table lookups). Off by
  /// default, as in the paper; enabling demonstrates overtainting.
  bool propagate_address_deps = false;

  /// No product reader; goes with triagebench's traced-pass rewrite (ROADMAP).
  std::map<VAddr, std::vector<std::pair<u32, u64>>> elide_hints;

  /// Declarative ruleset (core/rules.h). Empty: the engine runs the
  /// paper's two confluence rules (builtin_rules()). Non-empty (e.g.
  /// parsed from a --policies file): these specs *replace* them entirely.
  std::vector<RuleSpec> rules;

  /// Analyst whitelist: findings in these processes are recorded but
  /// marked suppressed (the paper's JIT whitelisting).
  std::set<std::string> whitelist;

  u32 prov_list_cap = 64;
  u32 max_findings = 256;

  /// Own a MetricSink and bind the shadow/store/engine counters to it.
  /// Off, every counter handle is null and the hot-path cost is one
  /// predicted branch per increment site (see src/obs/obs.h).
  bool collect_metrics = true;
};

struct EngineStats {
  u64 insns_seen = 0;
  u64 loads = 0;
  u64 stores = 0;
  u64 tainted_fetches = 0;
  u64 export_table_reads = 0;  // loads that touched export-tagged bytes
  u64 policy_evals = 0;
  /// Instructions retired by approved block elisions (kSyscall tails
  /// included; a trapped body counts its retired prefix); subset of
  /// insns_seen.
  u64 elided_insns = 0;
};

class FarosEngine : public vm::ExecHooks, public osi::GuestMonitor {
 public:
  /// `osi` resolves CR3 values to processes (PANDA OSI analogue).
  explicit FarosEngine(const os::OsiQuery& osi, Options opts = {});
  // Register banks and the attached interpreter hold pointers to the
  // elision epoch inside shadow_ and to granted_: the engine never moves.
  FarosEngine(const FarosEngine&) = delete;
  FarosEngine& operator=(const FarosEngine&) = delete;

  // --- attach both halves to a Machine ---
  // machine.attach_cpu_plugin(&engine); machine.add_monitor(&engine);

  // vm::ExecHooks
  void on_insn_retired(const vm::InsnEvent& ev,
                       const vm::AddressSpace& as) override;
  bool try_elide_block(const vm::TranslatedBlock& block) override;
  void on_block_elided(vm::TranslatedBlock& block, u32 retired) override;
  vm::ElisionGrants elision_grants() override {
    return {shadow_.epoch(), &granted_};
  }

  // osi::GuestMonitor
  void on_process_start(const osi::ProcessInfo& p) override;
  void on_process_exit(const osi::ProcessInfo& p, u32 exit_code) override;
  void on_module_loaded(const osi::ModuleInfo& mod,
                        const vm::AddressSpace& kernel_as) override;
  void on_packet_to_guest(const osi::GuestXfer& xfer, const FlowTuple& flow,
                          const osi::PacketMeta& meta = {}) override;
  void on_guest_send(const osi::GuestXfer& xfer, const FlowTuple& flow,
                     const osi::PacketMeta& meta = {}) override;
  void on_file_read(const osi::GuestXfer& xfer, u32 file_id,
                    const std::string& path, u32 version,
                    u32 file_offset) override;
  void on_file_write(const osi::GuestXfer& xfer, u32 file_id,
                     const std::string& path, u32 version,
                     u32 file_offset) override;
  void on_image_mapped(const osi::ProcessInfo& proc,
                       const vm::AddressSpace& as, VAddr base, u32 len,
                       u32 file_id, const std::string& path,
                       u32 version) override;
  void on_iat_resolved(const osi::ProcessInfo& proc,
                       const vm::AddressSpace& as, VAddr slot_va) override;
  void on_cross_process_write(const osi::GuestXfer& src,
                              const osi::GuestXfer& dst) override;
  void on_atom_write(const osi::GuestXfer& xfer, u32 atom_id) override;
  void on_atom_read(const osi::GuestXfer& xfer, u32 atom_id) override;
  void on_kernel_write(const osi::GuestXfer& xfer) override;
  void on_frame_recycled(PAddr frame_base) override;

  // --- policies ---
  /// Rules never write shadow state, so one propagation pass serves many
  /// rule sets. Set 0 is the primary (Options::rules); this adds another
  /// (empty `rules`: the built-ins) with its own findings, dedup and
  /// max_findings cap, and returns its index. Only set 0 feeds the obs
  /// counters. Call before the run; DESIGN.md §3j has what sets share.
  u32 add_rule_set(std::vector<RuleSpec> rules);
  u32 rule_set_count() const { return static_cast<u32>(sets_.size()); }
  /// A set's compiled rules (ids, per-rule eval/hit counts); the farm
  /// serialises set 0's per job.
  const RuleEngine& rule_engine(u32 set = 0) const { return sets_[set].rules; }

  // --- results (per rule set; set 0 is the primary) ---
  const std::vector<Finding>& findings(u32 set = 0) const {
    return sets_[set].findings;
  }
  /// Primary findings not suppressed by the whitelist.
  std::vector<Finding> active_findings() const;
  bool flagged(u32 set = 0) const;

  /// Table II-style report over the primary set's findings.
  std::string report() const;

  // --- introspection for tests/benches ---
  const ProvStore& store() const { return store_; }
  const TagMaps& maps() const { return maps_; }
  const ShadowMemory& shadow() const { return shadow_; }
  /// Totals, granted block dispatches (vm::ElisionTally) folded in.
  EngineStats stats() const;
  const Options& options() const { return opts_; }
  /// A process's register-shadow bank; non-null from its start event (or
  /// first touch) until its exit.
  const ShadowRegisters* registers(PAddr cr3) const {
    auto it = procs_.find(cr3);
    return it == procs_.end() ? nullptr : &it->second.regs;
  }

  /// The engine's metric sink (null when collect_metrics is off). Exposed
  /// so the farm can add job-phase timers to the same sink.
  obs::MetricSink* metrics() { return metrics_.get(); }
  /// Counter snapshot with the EngineStats totals folded in (kInsnsRetired
  /// etc. live in EngineStats; copying them at snapshot time keeps the
  /// per-insn path free of double bookkeeping). `collected` is false when
  /// metrics are off.
  obs::MetricSnapshot metrics_snapshot() const;

  /// Provenance of a guest virtual address in `as` (analyst query).
  ProvListId prov_at(const vm::AddressSpace& as, VAddr va) const;

 private:
  /// One live process, the paper's pair of a process-map entry and a
  /// shadow register bank, plus its fetch-provenance cache. on_process_start
  /// makes it; a CR3 no start event announced gets one at first touch, with
  /// its identity from the OSI query. on_process_exit erases it, so a
  /// recycled CR3 always starts from a fresh record.
  struct Proc {
    Proc(const osi::ProcessInfo& who, u64* epoch) : regs(epoch), info(who) {}
    ShadowRegisters regs;
    osi::ProcessInfo info;
    /// The process tag: added to maps_.process at the start event, or at
    /// an unannounced process's first process-tag append.
    std::optional<ProvTag> tag;
    /// Direct-mapped cache behind fetch_prov, allocated at the process's
    /// first tainted fetch. An entry is valid while the containing shadow
    /// page's mutation stamp is unchanged, so steady-state execution from
    /// tainted code pages (mapped images), instrumented or elided, hits
    /// here instead of walking the eight instruction bytes.
    struct FetchEntry {
      PAddr pc_pa = ~0ull;
      u64 version = 0;
      ProvListId result = kEmptyProv;
    };
    std::vector<FetchEntry> fetches;
  };
  static constexpr u32 kFetchCacheSize = 512;  // entries per process; 2^k

  /// The record of a CR3, with a one-entry cache so the common run of
  /// instructions from one process skips the hash lookup. procs_ is
  /// node-based, so the cached pointer stays valid across inserts; process
  /// exit invalidates it explicitly.
  Proc& proc(PAddr cr3) {
    if (last_proc_ && last_cr3_ == cr3) return *last_proc_;
    return proc_miss(cr3);
  }
  /// proc() behind a cache miss: finds or makes the record and caches it.
  Proc& proc_miss(PAddr cr3);
  /// The process's tag; adds its ProcessMap entry on first use.
  ProvTag process_tag(Proc& p);

  /// Appends the process tag to a (tainted) list when process tracking is
  /// on; returns the list unchanged otherwise.
  ProvListId with_process(ProvListId id, PAddr cr3, bool even_if_untainted);

  void clear_xfer(const osi::GuestXfer& xfer);

  /// One policy set: its compiled rules and what they found.
  struct RuleSet {
    RuleEngine rules;
    std::vector<Finding> findings;
    /// Dedup on (cr3, insn va, rule index): CR3 keeps processes sharing an
    /// image base apart. A site is marked only when its finding is
    /// recorded, so hitting max_findings never poisons it.
    std::set<std::tuple<PAddr, VAddr, u32>> flagged_sites;
  };

  /// Per-trigger unions over every set: a site tests `bound` (one branch
  /// when no set binds it) and computes the value or page-flag input only
  /// when some set needs it.
  struct TriggerNeeds {
    bool bound = false;
    bool value = false;
    bool page_flags = false;
  };
  const TriggerNeeds& needs(Trigger t) const {
    return needs_[static_cast<u32>(t)];
  }

  /// Evaluates each set's rules bound to `t` and records a Finding per
  /// matched flag/warn rule (deduped and capped per set).
  void run_trigger(Trigger t, const vm::InsnEvent& ev,
                   const vm::AddressSpace& as, const RuleInputs& in);
  void record_finding(RuleSet& set, u32 rule_idx, const vm::InsnEvent& ev,
                      const vm::AddressSpace& as, const RuleInputs& in);

  /// Fetch provenance of the instruction at `pc_pa` for process `p`, with
  /// the one-time process-tag writebacks: the one fetch walk, behind the
  /// range probe and the process's fetch cache.
  ProvListId fetch_prov(PAddr pc_pa, Proc& p);
  /// Count of tainted-fetch instructions among the block's first `count`,
  /// through fetch_prov (behind on_block_elided).
  u32 block_tainted_fetches(const vm::TranslatedBlock& block, u32 count,
                            Proc& p);
  /// Shadow probe over the code bytes of the block's first `count`
  /// instructions (both segments of a superblock): false means none of
  /// them carries provenance.
  bool code_tainted(const vm::TranslatedBlock& block, u32 count);

  const os::OsiQuery& osi_;
  Options opts_;
  ProvStore store_;
  TagMaps maps_;
  ShadowMemory shadow_;
  StorageShadow file_shadow_;     // keyed by file id
  StorageShadow segment_shadow_;  // keyed by loopback segment id
  StorageShadow atom_shadow_;     // keyed by atom id
  std::unordered_map<PAddr, Proc> procs_;  // keyed by CR3
  PAddr last_cr3_ = 0;                     // proc() one-entry cache
  Proc* last_proc_ = nullptr;
  std::vector<RuleSet> sets_;  // [0] is the primary
  std::array<TriggerNeeds, kTriggerCount> needs_{};
  std::vector<u32> matched_;  // dispatch scratch (avoids per-site allocs)
  EngineStats stats_;
  /// Deltas of granted dispatches, added by the interpreter; stats() and
  /// metrics_snapshot() fold them in.
  vm::ElisionTally granted_;

  std::unique_ptr<obs::MetricSink> metrics_;  // null = metrics off
  obs::Counter fetch_hit_;
  obs::Counter fetch_miss_;
  obs::Counter tainted_load_;
  obs::Counter tainted_store_;
  obs::Counter taint_src_events_;
  obs::Counter netflow_src_bytes_;
  obs::Counter file_read_src_bytes_;
  obs::Counter file_write_src_bytes_;
  obs::Counter image_map_src_bytes_;
  obs::Counter export_tag_bytes_;
  obs::Counter bt_elided_;      // offered blocks approved for the fast body
  obs::Counter bt_guard_fail_;  // elision declined, any reason
  obs::Counter bt_decline_read_;     // ... because a read register is tainted
  obs::Counter bt_decline_sysarg_;   // ... because of a syscall-arg rule
  obs::Counter bt_decline_fetch_;    // ... because of a tainted-fetch rule
};

}  // namespace faros::core
