#include "core/engine.h"

#include <algorithm>

#include "common/strings.h"
#include "vm/btcache.h"
#include "vm/isa.h"

namespace faros::core {

using vm::AccessType;
using vm::Opcode;

FarosEngine::FarosEngine(const os::OsiQuery& osi, Options opts)
    : osi_(osi),
      opts_(opts),
      store_(opts.prov_list_cap, kProvStoreMaxLists) {
  add_rule_set(opts_.rules);  // set 0, the primary
  if (opts_.collect_metrics) {
    metrics_ = std::make_unique<obs::MetricSink>();
    shadow_.bind_obs(metrics_.get());
    store_.bind_obs(metrics_.get());
    obs::MetricSink* s = metrics_.get();
    fetch_hit_ = {s, obs::Ctr::kFetchCacheHit};
    fetch_miss_ = {s, obs::Ctr::kFetchCacheMiss};
    tainted_load_ = {s, obs::Ctr::kTaintedLoads};
    tainted_store_ = {s, obs::Ctr::kTaintedStores};
    taint_src_events_ = {s, obs::Ctr::kTaintSrcEvents};
    netflow_src_bytes_ = {s, obs::Ctr::kNetflowSrcBytes};
    file_read_src_bytes_ = {s, obs::Ctr::kFileReadSrcBytes};
    file_write_src_bytes_ = {s, obs::Ctr::kFileWriteSrcBytes};
    image_map_src_bytes_ = {s, obs::Ctr::kImageMapSrcBytes};
    export_tag_bytes_ = {s, obs::Ctr::kExportTagBytes};
    bt_elided_ = {s, obs::Ctr::kBtElidedBlocks};
    bt_guard_fail_ = {s, obs::Ctr::kBtGuardFail};
    bt_decline_read_ = {s, obs::Ctr::kBtDeclineTaintedRead};
    bt_decline_sysarg_ = {s, obs::Ctr::kBtDeclineSyscallArg};
    bt_decline_fetch_ = {s, obs::Ctr::kBtDeclineFetchRule};
    sets_[0].rules.bind_obs(s);
  }
}

u32 FarosEngine::add_rule_set(std::vector<RuleSpec> rules) {
  // An explicit ruleset replaces the built-ins.
  if (rules.empty()) rules = builtin_rules();
  RuleEngine& re = sets_.emplace_back().rules;
  re.configure(rules);
  ++*shadow_.epoch();  // newly bound triggers can change a guard answer
  for (u32 i = 0; i < kTriggerCount; ++i) {
    const Trigger t = static_cast<Trigger>(i);
    needs_[i].bound |= re.has_rules(t);
    needs_[i].value |= re.needs_value(t);
    needs_[i].page_flags |= re.needs_page_flags(t);
  }
  return static_cast<u32>(sets_.size() - 1);
}

FarosEngine::Proc& FarosEngine::proc_miss(PAddr cr3) {
  auto it = procs_.find(cr3);
  if (it == procs_.end()) {
    osi::ProcessInfo who;
    if (auto live = osi_.process_by_cr3(cr3)) {
      who = *live;
    } else {
      who.cr3 = cr3;
      who.name = "<unknown>";
    }
    it = procs_.emplace(cr3, Proc(who, shadow_.epoch())).first;
  }
  last_cr3_ = cr3;
  last_proc_ = &it->second;
  return it->second;
}

ProvTag FarosEngine::process_tag(Proc& p) {
  if (!p.tag) {
    p.tag = ProvTag::process(
        maps_.process.add(p.info.cr3, p.info.pid, p.info.name));
  }
  return *p.tag;
}

ProvListId FarosEngine::with_process(ProvListId id, PAddr cr3,
                                     bool even_if_untainted) {
  if (!opts_.track_process) return id;
  if (id == kEmptyProv && !even_if_untainted) return id;
  return store_.append(id, process_tag(proc(cr3)));
}

// The one fetch walk, shared by the instrumented path (per instruction) and
// the elided path (per retired instruction of an approved block). Two fast
// paths replace the eight per-byte lookups in the common cases:
//  * untainted page: one page-summary probe (usually a single cached
//    compare) — the entire fetch-side cost on clean memory;
//  * tainted code page (every instruction of a mapped image, under
//    taint_mapped_images): the result is a pure function of (pc_pa,
//    process, page bytes), so the process's direct-mapped cache, validated
//    by the page's mutation stamp, answers steady-state re-executions in
//    O(1).
//    A miss runs the walk (performing the one-time process-tag writebacks)
//    and then caches against the post-writeback stamp, so a hit implies
//    the walk would have no side effects. An 8-byte aligned fetch never
//    crosses a page, and a tainted range implies the page exists, so its
//    stamp is nonzero.
ProvListId FarosEngine::fetch_prov(PAddr pc_pa, Proc& p) {
  if (!shadow_.range_tainted(pc_pa, vm::kInsnSize)) return kEmptyProv;
  if (p.fetches.empty()) p.fetches.resize(kFetchCacheSize);
  Proc::FetchEntry& entry =
      p.fetches[(pc_pa / vm::kInsnSize) & (kFetchCacheSize - 1)];
  if (entry.pc_pa == pc_pa && entry.version == shadow_.page_version(pc_pa)) {
    fetch_hit_.inc();
    return entry.result;
  }
  fetch_miss_.inc();
  ProvListId fetch = kEmptyProv;
  for (u32 i = 0; i < vm::kInsnSize; ++i) {
    ProvListId id = shadow_.get(pc_pa + i);
    if (id != kEmptyProv) {
      ProvListId id2 = with_process(id, p.info.cr3, false);
      if (id2 != id) shadow_.set(pc_pa + i, id2);
      fetch = store_.merge(fetch, id2);
    }
  }
  entry = {pc_pa, shadow_.page_version(pc_pa), fetch};
  return fetch;
}

// ---------------------------------------------------------------------------
// Instruction-level propagation (Table I).

void FarosEngine::on_insn_retired(const vm::InsnEvent& ev,
                                  const vm::AddressSpace& as) {
  ++stats_.insns_seen;
  const vm::Instruction& insn = ev.insn;
  Proc& p = proc(ev.cr3);
  ShadowRegisters& sr = p.regs;

  // Instruction fetch is a memory access by this process: append its tag to
  // any tainted instruction bytes, and collect their provenance — the
  // "provenance list associated with this instruction" of Figures 7-10.
  const ProvListId fetch = fetch_prov(ev.pc_pa, p);
  if (fetch != kEmptyProv) {
    ++stats_.tainted_fetches;
    // Guarded by the empty-list check: the image-tainted regime reaches
    // this every instruction, so an unbound trigger must stay one branch.
    if (needs(Trigger::kTaintedFetch).bound) {
      RuleInputs in;
      in.fetch = fetch;
      run_trigger(Trigger::kTaintedFetch, ev, as, in);
    }
  }

  // The access, if any. One that straddles a page resolves the second
  // page's base once: offsets survive translation, so every byte on the
  // first page is pa + i and every byte past the boundary sits at the same
  // offset from that base. The access itself already translated every
  // byte, so this cannot fault — if it somehow did, byte_pa skips the
  // second-page bytes, exactly as a per-byte translate would.
  const vm::MemAccess* mem = ev.mem ? &*ev.mem : nullptr;
  std::optional<PAddr> pa2;
  if (mem) {
    const u32 off = mem->va & ShadowMemory::kPageMask;
    if (off + mem->size > ShadowMemory::kPageBytes) {
      pa2 = as.translate(mem->va + (ShadowMemory::kPageBytes - off),
                         mem->is_write ? AccessType::kWrite
                                       : AccessType::kRead,
                         false);
    }
  }
  auto byte_pa = [&](u32 i, PAddr* pa) {
    const u32 off = (mem->va & ShadowMemory::kPageMask) + i;
    if (off < ShadowMemory::kPageBytes) {
      *pa = mem->pa + i;
      return true;
    }
    if (pa2) {
      *pa = *pa2 + (off - ShadowMemory::kPageBytes);
      return true;
    }
    return false;
  };

  // A load/store whose bytes stay inside one page (page offsets survive
  // translation, so checking the first byte's physical offset suffices) and
  // whose page holds no taint can skip the per-byte lookup loop: every
  // shadow read would return empty and every shadow write of an empty id
  // would be a no-op.
  auto same_clean_page = [&](u32 size) {
    return (mem->pa & ShadowMemory::kPageMask) + size <=
               ShadowMemory::kPageBytes &&
           !shadow_.page_tainted(mem->pa);
  };

  auto handle_load = [&](u8 dst_reg, u8 base_reg) {
    ++stats_.loads;
    if (!mem) return;
    const u32 size = mem->size;
    ProvListId addr_u = opts_.propagate_address_deps
                            ? sr.reg_union(base_reg, store_)
                            : kEmptyProv;
    if (same_clean_page(size)) {
      // Clean source: dst bytes carry only the (usually empty) address
      // dependency; no target provenance means no policy to evaluate.
      for (u32 i = 0; i < 4; ++i) {
        sr.set(dst_reg, static_cast<u8>(i), i < size ? addr_u : kEmptyProv);
      }
      return;
    }
    ProvListId target_union = kEmptyProv;
    ProvListId byte_ids[4] = {};
    for (u32 i = 0; i < size; ++i) {
      PAddr pa;
      if (!byte_pa(i, &pa)) continue;
      ProvListId id = shadow_.get(pa);
      if (id != kEmptyProv) {
        ProvListId id2 = with_process(id, ev.cr3, false);
        if (id2 != id) shadow_.set(pa, id2);
        id = id2;
      }
      target_union = store_.merge(target_union, id);
      byte_ids[i] = store_.merge(id, addr_u);
    }
    for (u32 i = 0; i < 4; ++i) {
      sr.set(dst_reg, static_cast<u8>(i), i < size ? byte_ids[i] : kEmptyProv);
    }
    if (target_union != kEmptyProv) {
      tainted_load_.inc();
      if (store_.contains_type(target_union, TagType::kExportTable)) {
        ++stats_.export_table_reads;
      }
      if (needs(Trigger::kTaintedLoad).bound) {
        RuleInputs in;
        in.fetch = fetch;
        in.target = target_union;
        if (needs(Trigger::kTaintedLoad).value) {
          // What the load moves into rd: the target bytes plus any address
          // dependency. Computed only when a rule will look at it.
          in.value = store_.merge(target_union, addr_u);
        }
        run_trigger(Trigger::kTaintedLoad, ev, as, in);
      }
    }
  };

  auto handle_store = [&](u8 src_reg, u8 base_reg) {
    ++stats_.stores;
    if (!mem) return;
    const u32 size = mem->size;
    ProvListId addr_u = opts_.propagate_address_deps
                            ? sr.reg_union(base_reg, store_)
                            : kEmptyProv;
    // Clean value into a clean page: nothing to write (an empty id is a
    // no-op), nothing for the staging policy to flag (val would be empty).
    if (addr_u == kEmptyProv && !sr.reg_tainted(src_reg) &&
        same_clean_page(size)) {
      return;
    }
    if (addr_u != kEmptyProv || sr.reg_tainted(src_reg)) {
      tainted_store_.inc();
      // Store-side triggers. tainted-store sees every tainted write;
      // exec-page-write is the staging-time site (the value being written
      // lands in executable memory — the historical tainted-code-write
      // check, now a built-in spec). Inputs are computed lazily: the value
      // merge only when some rule is bound, the page-flag probe and the
      // pre-write target union only when a bound rule will look at them.
      const bool store_rules = needs(Trigger::kTaintedStore).bound;
      const bool exec_rules = needs(Trigger::kExecPageWrite).bound;
      if (store_rules || exec_rules) {
        ProvListId val = store_.merge(sr.reg_union(src_reg, store_), addr_u);
        bool page_exec = false;
        if (exec_rules || needs(Trigger::kTaintedStore).page_flags) {
          page_exec = (as.page_flags(mem->va) & vm::kPteExec) != 0;
        }
        if (store_rules) {
          RuleInputs in;
          in.fetch = fetch;
          in.value = val;
          in.page_exec = page_exec;
          for (u32 i = 0; i < size; ++i) {  // pre-write destination union
            PAddr pa;
            if (!byte_pa(i, &pa)) continue;
            in.target = store_.merge(in.target, shadow_.get(pa));
          }
          run_trigger(Trigger::kTaintedStore, ev, as, in);
        }
        if (exec_rules && page_exec) {
          RuleInputs in;
          in.fetch = fetch;
          // Historical reports put the written value in target_prov.
          in.target = val;
          in.value = val;
          in.page_exec = true;
          run_trigger(Trigger::kExecPageWrite, ev, as, in);
        }
      }
    }
    for (u32 i = 0; i < size; ++i) {
      PAddr pa;
      if (!byte_pa(i, &pa)) continue;
      ProvListId id = store_.merge(sr.get(src_reg, static_cast<u8>(i)),
                                   addr_u);
      id = with_process(id, ev.cr3, false);
      shadow_.set(pa, id);  // copy rule; empty clears stale taint
    }
  };

  // Table I, as the opcode's row states it (vm/isa.h).
  const vm::OpRow& row = vm::op_row(insn.op);
  const u8 dst = vm::operand(row.dst, insn);
  const u8 src = vm::operand(row.src, insn);
  switch (row.rule) {
    case vm::Rule::kNoFlow: break;  // control dependencies do not flow
    case vm::Rule::kDelete: sr.clear_reg(dst); break;
    case vm::Rule::kCopy:
      for (u8 b = 0; b < 4; ++b) sr.set(dst, b, sr.get(src, b));
      break;
    case vm::Rule::kUnionZero:
      if (vm::zero_idiom(row, insn)) {
        sr.clear_reg(dst);
        break;
      }
      [[fallthrough]];
    case vm::Rule::kUnion: {
      const u8 src2 = vm::operand(row.src2, insn);
      sr.set_all(dst, row.src2 == vm::Role::kNoReg
                          ? sr.reg_union(src, store_)
                          : store_.merge(sr.reg_union(src, store_),
                                         sr.reg_union(src2, store_)));
      break;
    }
    case vm::Rule::kLoad:
      handle_load(dst, vm::operand(row.base, insn));
      break;
    case vm::Rule::kStore:
      handle_store(src, vm::operand(row.base, insn));
      break;
    case vm::Rule::kSyscall:
      // syscall-arg trigger: the ABI passes arguments in r1..r4; a bound
      // rule sees their combined provenance (e.g. tainted bytes handed to
      // the kernel). Unbound (the default), the cost is one branch.
      if (needs(Trigger::kSyscallArg).bound) {
        ProvListId args = sr.reg_union(vm::R1, store_);
        args = store_.merge(args, sr.reg_union(vm::R2, store_));
        args = store_.merge(args, sr.reg_union(vm::R3, store_));
        args = store_.merge(args, sr.reg_union(vm::R4, store_));
        if (args != kEmptyProv) {
          RuleInputs in;
          in.fetch = fetch;
          in.target = args;
          in.value = args;
          run_trigger(Trigger::kSyscallArg, ev, as, in);
        }
      }
      sr.clear_reg(dst);  // the (native) kernel produces the result
      break;
  }
}

// Block elision (vm/btcache.h). The interpreter offers a cached block whose
// opcodes are all elidable (vm::OpRow::elidable); approving
// means skipping the per-instruction path above for the instructions the
// body retires: all of them, or the prefix before a kDivu that divides by
// zero (a trapping instruction never reaches on_insn_retired). That is
// exact — the engine ends in the state the per-instruction path would
// reach at that point — because every per-instruction effect is provably a
// no-op or precomputable:
//  * register propagation — if no register in `reads` (read before the
//    block writes it) carries provenance, every value the block computes
//    comes from clean sources, so Table I leaves each register the retired
//    instructions write clean and every other register untouched. A
//    prefix reads no register the whole block does not, so clearing the
//    prefix's writes is exact too (a no-op on a clean bank);
//  * fetch provenance — on a clean code page there is none; on a tainted
//    page on_block_elided runs fetch_prov, the per-insn walk and its cache,
//    over the retired instructions, one-time writebacks included;
//  * triggers — the body has no memory ops, so it can fire only
//    tainted-fetch (declined when the block holds a tainted instruction
//    byte and any rule set binds it) and, for a kSyscall tail,
//    syscall-arg: r1..r4 hold provenance at the kSyscall only if tainted
//    on entry and not written by the block, so that check runs on entry
//    state.
// The guard decides before the body runs and changes nothing; all
// accounting happens in on_block_elided, once the retired count is known.
bool FarosEngine::try_elide_block(const vm::TranslatedBlock& b) {
  // One reason per decline, checked in this order; bt_guard_fail is their
  // sum.
  auto decline = [this](obs::Counter& reason) {
    reason.inc();
    bt_guard_fail_.inc();
    return false;
  };
  const ShadowRegisters& sr = proc(b.cr3).regs;
  constexpr u16 kSyscallArgs = (1u << vm::R1) | (1u << vm::R2) |
                               (1u << vm::R3) | (1u << vm::R4);
  if (!sr.clean()) {
    if (sr.any_tainted(b.reads)) return decline(bt_decline_read_);
    if (b.insns.back().op == Opcode::kSyscall &&
        needs(Trigger::kSyscallArg).bound &&
        sr.any_tainted(kSyscallArgs & ~b.writes)) {
      return decline(bt_decline_sysarg_);
    }
  }
  if (needs(Trigger::kTaintedFetch).bound) {
    // Bound fetch rules need per-instruction events. A fetch carries
    // provenance exactly when one of its bytes does, so reading the shadow
    // answers without the walk's writebacks.
    const u32 n = static_cast<u32>(b.insns.size());
    if (code_tainted(b, n)) {
      for (u32 i = 0; i < n; ++i) {
        for (u32 k = 0; k < vm::kInsnSize; ++k) {
          if (shadow_.get(b.pa_of(i) + k) != kEmptyProv) {
            return decline(bt_decline_fetch_);
          }
        }
      }
    }
  }
  return true;
}

bool FarosEngine::code_tainted(const vm::TranslatedBlock& b, u32 count) {
  // One probe over the span of both segments: they share the block's page,
  // and every caller walks the bytes exactly behind a hit.
  const u32 head = std::min(count, b.split);
  PAddr lo = b.start_pa;
  PAddr hi = b.start_pa + u64{head} * vm::kInsnSize;
  if (count > head) {
    lo = std::min(lo, b.split_pa);
    hi = std::max(hi, b.split_pa + u64{count - head} * vm::kInsnSize);
  }
  return shadow_.range_tainted(lo, hi - lo);
}

void FarosEngine::on_block_elided(vm::TranslatedBlock& b, u32 retired) {
  Proc& p = proc(b.cr3);
  ShadowRegisters& sr = p.regs;
  if (!sr.clean()) {
    u16 writes = b.writes;
    if (retired < b.insns.size()) {
      writes = 0;
      for (u32 i = 0; i < retired; ++i) {
        writes |= vm::taint_footprint(b.insns[i]).writes;
      }
    }
    sr.clear_regs(writes);
  }
  const u32 fetches = block_tainted_fetches(b, retired, p);
  stats_.insns_seen += retired;
  stats_.tainted_fetches += fetches;
  stats_.elided_insns += retired;
  bt_elided_.inc();
  if (retired == b.insns.size()) {
    // Read after the fetch walk's writebacks: the grant holds while
    // nothing moves the epoch again (DESIGN.md §3g).
    b.grant = *shadow_.epoch();
    b.grant_fetches = fetches;
  }
}

u32 FarosEngine::block_tainted_fetches(const vm::TranslatedBlock& b,
                                       u32 count, Proc& p) {
  if (!code_tainted(b, count)) return 0;
  u32 tainted = 0;
  for (u32 i = 0; i < count; ++i) {
    if (fetch_prov(b.pa_of(i), p) != kEmptyProv) ++tainted;
  }
  return tainted;
}

void FarosEngine::run_trigger(Trigger t, const vm::InsnEvent& ev,
                              const vm::AddressSpace& as,
                              const RuleInputs& in) {
  for (RuleSet& rs : sets_) {
    if (!rs.rules.has_rules(t)) continue;
    const u32 evals = rs.rules.dispatch(t, store_, in, matched_);
    if (&rs == &sets_[0]) stats_.policy_evals += evals;
    for (u32 idx : matched_) record_finding(rs, idx, ev, as, in);
  }
}

void FarosEngine::record_finding(RuleSet& set, u32 rule_idx,
                                 const vm::InsnEvent& ev,
                                 const vm::AddressSpace& as,
                                 const RuleInputs& in) {
  auto site = std::make_tuple(ev.cr3, ev.pc, rule_idx);
  if (set.flagged_sites.count(site) != 0) return;
  // At the cap the site is deliberately NOT marked: the cap bounds what is
  // recorded, never which sites are eligible.
  if (set.findings.size() >= opts_.max_findings) return;

  Finding f;
  f.policy = set.rules.rule_id(rule_idx);
  f.instr_index = ev.instr_index;
  f.proc = proc(ev.cr3).info;
  f.insn_va = ev.pc;
  f.insn_pa = ev.pc_pa;
  f.disasm = vm::disassemble(ev.insn);
  f.target_va = ev.mem ? ev.mem->va : 0;
  f.fetch_prov = in.fetch;
  f.target_prov = in.target;
  f.whitelisted = opts_.whitelist.count(f.proc.name) != 0;
  f.warn_only = set.rules.rule_action(rule_idx) == RuleAction::kWarn;
  // Snapshot the code around the flagged pc now: a transient payload may
  // wipe itself before the analyst ever looks.
  constexpr u32 kBefore = 4 * vm::kInsnSize;
  constexpr u32 kAfter = 8 * vm::kInsnSize;
  f.code_base = ev.pc >= kBefore ? ev.pc - kBefore : 0;
  Bytes window(kBefore + kAfter);
  if (as.copy_out(f.code_base, window, /*user=*/false).ok()) {
    f.code_window = std::move(window);
  } else {
    // Window ran off the mapped region; fall back to just the insn.
    Bytes small(vm::kInsnSize);
    if (as.copy_out(ev.pc, small, /*user=*/false).ok()) {
      f.code_base = ev.pc;
      f.code_window = std::move(small);
    }
  }
  set.findings.push_back(std::move(f));
  set.flagged_sites.insert(site);
}

// ---------------------------------------------------------------------------
// Tag insertion (semantic events from the introspection layer).

namespace {
/// Per-byte iteration over a guest transfer; calls fn(offset, paddr).
template <typename Fn>
void for_each_byte(const osi::GuestXfer& xfer, Fn&& fn) {
  for (u32 i = 0; i < xfer.len; ++i) {
    auto pa = xfer.as->translate(xfer.va + i, AccessType::kRead, false);
    if (pa) fn(i, *pa);
  }
}
}  // namespace

void FarosEngine::on_process_start(const osi::ProcessInfo& p) {
  // Assigning in place keeps a cached pointer to this CR3's node valid.
  Proc& rec =
      procs_.insert_or_assign(p.cr3, Proc(p, shadow_.epoch())).first->second;
  rec.tag = ProvTag::process(maps_.process.add(p.cr3, p.pid, p.name));
}

void FarosEngine::on_process_exit(const osi::ProcessInfo& p, u32 exit_code) {
  (void)exit_code;
  // CR3 values can be recycled by later processes; the record goes with
  // its process (ProcessMap keeps the entry for report rendering).
  if (last_proc_ && last_cr3_ == p.cr3) last_proc_ = nullptr;
  procs_.erase(p.cr3);
}

void FarosEngine::on_module_loaded(const osi::ModuleInfo& mod,
                                   const vm::AddressSpace& kernel_as) {
  if (!opts_.track_export) return;
  taint_src_events_.inc();
  export_tag_bytes_.inc(static_cast<u64>(mod.export_count) * 4);
  // Taint the function-pointer field of every export entry: layout is
  // [count][hash u32, addr u32]*count; the addr bytes get the tag.
  ProvListId id = store_.intern({ProvTag::export_table()});
  for (u32 i = 0; i < mod.export_count; ++i) {
    VAddr addr_field = mod.exports_va + 4 + i * 8 + 4;
    for (u32 b = 0; b < 4; ++b) {
      auto pa = kernel_as.translate(addr_field + b, AccessType::kRead, false);
      if (pa) shadow_.set(*pa, id);
    }
  }
}

void FarosEngine::on_packet_to_guest(const osi::GuestXfer& xfer,
                                     const FlowTuple& flow,
                                     const osi::PacketMeta& meta) {
  taint_src_events_.inc();
  netflow_src_bytes_.inc(xfer.len);
  ProvListId fresh = kEmptyProv;
  ProvTag nf_tag = ProvTag::netflow(0);
  if (opts_.track_netflow) {
    nf_tag = ProvTag::netflow(maps_.netflow.intern(flow));
    fresh = store_.intern({nf_tag});
    fresh = with_process(fresh, xfer.proc.cr3, false);
  }
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    // Loopback segments carry the sender-side provenance: the chain keeps
    // running through the network stack (whole-system tracking).
    ProvListId base = meta.segment_id
                          ? segment_shadow_.get(meta.segment_id,
                                                meta.segment_off + i)
                          : kEmptyProv;
    if (base != kEmptyProv) {
      ProvListId id = base;
      if (opts_.track_netflow) id = store_.append(id, nf_tag);
      id = with_process(id, xfer.proc.cr3, false);
      shadow_.set(pa, id);
    } else {
      shadow_.set(pa, fresh);
    }
  });
}

void FarosEngine::on_guest_send(const osi::GuestXfer& xfer,
                                const FlowTuple& flow,
                                const osi::PacketMeta& meta) {
  (void)flow;
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    ProvListId id = shadow_.get(pa);
    if (id != kEmptyProv) {
      id = with_process(id, xfer.proc.cr3, false);
      shadow_.set(pa, id);
    }
    // Attach the source provenance to the in-flight segment so a loopback
    // receiver inherits it.
    if (meta.loopback && meta.segment_id) {
      segment_shadow_.set(meta.segment_id, i, id);
    }
  });
}

void FarosEngine::on_file_read(const osi::GuestXfer& xfer, u32 file_id,
                               const std::string& path, u32 version,
                               u32 file_offset) {
  taint_src_events_.inc();
  file_read_src_bytes_.inc(xfer.len);
  ProvTag ftag = ProvTag::file(maps_.file.intern(file_id, version, path));
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    ProvListId id = file_shadow_.get(file_id, file_offset + i);
    if (opts_.track_file) id = store_.append(id, ftag);
    id = with_process(id, xfer.proc.cr3, false);
    shadow_.set(pa, id);
  });
}

void FarosEngine::on_file_write(const osi::GuestXfer& xfer, u32 file_id,
                                const std::string& path, u32 version,
                                u32 file_offset) {
  taint_src_events_.inc();
  file_write_src_bytes_.inc(xfer.len);
  ProvTag ftag = ProvTag::file(maps_.file.intern(file_id, version, path));
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    ProvListId id = shadow_.get(pa);
    if (opts_.track_file) {
      // The paper taints the written buffer with the file tag (the byte is
      // now also "in" the file); chronology: process, then file.
      id = with_process(id, xfer.proc.cr3, true);
      id = store_.append(id, ftag);
      shadow_.set(pa, id);
    } else if (id != kEmptyProv) {
      id = with_process(id, xfer.proc.cr3, false);
      shadow_.set(pa, id);
    }
    file_shadow_.set(file_id, file_offset + i, id);
  });
}

void FarosEngine::on_image_mapped(const osi::ProcessInfo& proc,
                                  const vm::AddressSpace& as, VAddr base,
                                  u32 len, u32 file_id,
                                  const std::string& path, u32 version) {
  if (!opts_.track_file || !opts_.taint_mapped_images) return;
  taint_src_events_.inc();
  image_map_src_bytes_.inc(len);
  ProvTag ftag = ProvTag::file(maps_.file.intern(file_id, version, path));
  ProvListId plain = store_.intern({ftag});
  plain = with_process(plain, proc.cr3, true);
  // Bytes that reached this file from elsewhere (e.g. a dropper writing a
  // downloaded stage-2 binary) keep their history: merge the file shadow
  // so a netflow origin survives the round trip through disk. A file with
  // no shadow bytes (the common case) gives every byte `plain`.
  const bool merge = file_shadow_.any(file_id);
  // One translation per page: the bytes of a page run are contiguous.
  for (u32 i = 0; i < len;) {
    const u32 run =
        std::min(len - i, vm::kPageSize - vm::page_offset(base + i));
    auto pa = as.translate(base + i, AccessType::kRead, false);
    if (pa && !merge) {
      shadow_.fill(*pa, run, plain);
    } else if (pa) {
      for (u32 k = 0; k < run; ++k) {
        ProvListId base_prov = file_shadow_.get(file_id, i + k);
        ProvListId id = plain;
        if (base_prov != kEmptyProv) {
          id = store_.append(base_prov, ftag);
          id = with_process(id, proc.cr3, true);
        }
        shadow_.set(*pa + k, id);
      }
    }
    i += run;
  }
}

void FarosEngine::on_iat_resolved(const osi::ProcessInfo& proc,
                                  const vm::AddressSpace& as, VAddr slot_va) {
  (void)proc;
  if (!opts_.track_export) return;
  taint_src_events_.inc();
  export_tag_bytes_.inc(4);
  // The slot's value is derived from export-table data: append the export
  // tag on top of whatever provenance the slot bytes already carry (e.g.
  // the image's file tag), so IAT-scanning payloads hit the confluence too.
  for (u32 b = 0; b < 4; ++b) {
    auto pa = as.translate(slot_va + b, AccessType::kRead, false);
    if (!pa) continue;
    shadow_.set(*pa, store_.append(shadow_.get(*pa), ProvTag::export_table()));
  }
}

void FarosEngine::on_cross_process_write(const osi::GuestXfer& src,
                                         const osi::GuestXfer& dst) {
  for (u32 i = 0; i < src.len && i < dst.len; ++i) {
    auto spa = src.as->translate(src.va + i, AccessType::kRead, false);
    auto dpa = dst.as->translate(dst.va + i, AccessType::kRead, false);
    if (!dpa) continue;
    ProvListId id = spa ? shadow_.get(*spa) : kEmptyProv;
    if (id != kEmptyProv) {
      // The source process accessed the byte; record it, then copy.
      id = with_process(id, src.proc.cr3, false);
      if (spa) shadow_.set(*spa, id);
    }
    shadow_.set(*dpa, id);
  }
}

void FarosEngine::on_atom_write(const osi::GuestXfer& xfer, u32 atom_id) {
  // The atom table is kernel-resident storage: like the file shadow, it
  // carries provenance so atom-bombing-style payload staging is tracked.
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    ProvListId id = shadow_.get(pa);
    if (id != kEmptyProv) {
      id = with_process(id, xfer.proc.cr3, false);
      shadow_.set(pa, id);
    }
    atom_shadow_.set(atom_id, i, id);
  });
}

void FarosEngine::on_atom_read(const osi::GuestXfer& xfer, u32 atom_id) {
  for_each_byte(xfer, [&](u32 i, PAddr pa) {
    ProvListId id = atom_shadow_.get(atom_id, i);
    id = with_process(id, xfer.proc.cr3, false);
    shadow_.set(pa, id);
  });
}

void FarosEngine::on_kernel_write(const osi::GuestXfer& xfer) {
  clear_xfer(xfer);
}

void FarosEngine::clear_xfer(const osi::GuestXfer& xfer) {
  for_each_byte(xfer, [&](u32, PAddr pa) { shadow_.set(pa, kEmptyProv); });
}

void FarosEngine::on_frame_recycled(PAddr frame_base) {
  shadow_.clear_range(frame_base, vm::kPageSize);
}

// ---------------------------------------------------------------------------

std::vector<Finding> FarosEngine::active_findings() const {
  std::vector<Finding> out;
  for (const Finding& f : findings()) {
    if (!f.whitelisted) out.push_back(f);
  }
  return out;
}

bool FarosEngine::flagged(u32 set) const {
  for (const Finding& f : findings(set)) {
    if (!f.whitelisted && !f.warn_only) return true;
  }
  return false;
}

std::string FarosEngine::report() const {
  return render_findings_table(findings(), store_, maps_);
}

ProvListId FarosEngine::prov_at(const vm::AddressSpace& as, VAddr va) const {
  auto pa = as.translate(va, AccessType::kRead, false);
  return pa ? shadow_.get(*pa) : kEmptyProv;
}

EngineStats FarosEngine::stats() const {
  EngineStats s = stats_;
  s.insns_seen += granted_.insns;
  s.elided_insns += granted_.insns;
  s.tainted_fetches += granted_.fetches;
  return s;
}

obs::MetricSnapshot FarosEngine::metrics_snapshot() const {
  if (!metrics_) return {};
  obs::MetricSnapshot s = metrics_->snapshot();
  auto put = [&s](obs::Ctr c, u64 v) {
    s.counters[static_cast<u32>(c)] = v;
  };
  const EngineStats st = stats();
  put(obs::Ctr::kInsnsRetired, st.insns_seen);
  put(obs::Ctr::kLoads, st.loads);
  put(obs::Ctr::kStores, st.stores);
  put(obs::Ctr::kTaintedFetches, st.tainted_fetches);
  put(obs::Ctr::kPolicyEvals, st.policy_evals);
  put(obs::Ctr::kBtElidedInsns, st.elided_insns);
  s.counters[static_cast<u32>(obs::Ctr::kBtElidedBlocks)] += granted_.blocks;
  put(obs::Ctr::kBtGranted, granted_.blocks);
  return s;
}

}  // namespace faros::core
