#include "vm/cpu.h"

#include <algorithm>
#include <type_traits>

#include "vm/btcache.h"

namespace faros::vm {

namespace {
/// Zero-size stand-in for InsnEvent in the uninstrumented executor, so the
/// fast body pays nothing for event plumbing.
struct NoEvent {};
}  // namespace

const char* trap_kind_name(TrapKind kind) {
  switch (kind) {
    case TrapKind::kNone: return "none";
    case TrapKind::kMemFault: return "memory-fault";
    case TrapKind::kBadOpcode: return "bad-opcode";
    case TrapKind::kDivZero: return "divide-by-zero";
    case TrapKind::kPcMisaligned: return "pc-misaligned";
    case TrapKind::kBreak: return "break";
  }
  return "?";
}

Interpreter::Interpreter(PhysMem& mem)
    : mem_(&mem), btc_(std::make_unique<BlockCache>(mem)) {}

Interpreter::~Interpreter() = default;

void Interpreter::set_hooks(ExecHooks* hooks) {
  if (hooks != hooks_ && btc_) btc_->forget_plugin_state();
  hooks_ = hooks;
}

void Interpreter::set_block_cache_enabled(bool on) {
  if (on == (btc_ != nullptr)) return;
  btc_ = on ? std::make_unique<BlockCache>(*mem_) : nullptr;
}

void Interpreter::invalidate_code_frame(PAddr frame_base) {
  if (btc_) btc_->evict_frame(frame_base, /*smc=*/false);
}

void Interpreter::evict_cr3_blocks(PAddr cr3) {
  if (btc_) btc_->evict_cr3(cr3);
}

void Interpreter::flush_tlb() {
  for (auto& e : tlb_) e = TlbEntry{};
}

std::optional<PAddr> Interpreter::translate_cached(const AddressSpace& as,
                                                   VAddr va, AccessType type,
                                                   Fault* fault) {
  auto fail = [&](FaultKind kind) -> std::optional<PAddr> {
    if (fault) *fault = Fault{va, kind};
    return std::nullopt;
  };
  const u32 vpn = va >> kPageShift;
  TlbEntry& e = tlb_[vpn & (kTlbSize - 1)];
  if (e.cr3 != as.cr3() || e.vpn != vpn) {
    ++tlb_misses_;
    auto pte = as.lookup_pte(va);
    if (!pte) return fail(FaultKind::kNotMapped);
    e = TlbEntry{as.cr3(), vpn, *pte};
  } else {
    ++tlb_hits_;
  }
  // Guest execution is always user mode: enforce the user protections
  // exactly as AddressSpace::translate does.
  if (!(e.pte & kPteUser)) return fail(FaultKind::kNotUser);
  if (type == AccessType::kWrite && !(e.pte & kPteWrite)) {
    return fail(FaultKind::kProtWrite);
  }
  if (type == AccessType::kExec && !(e.pte & kPteExec)) {
    return fail(FaultKind::kProtExec);
  }
  return (e.pte & ~kPteFlagMask) | page_offset(va);
}

StepInfo Interpreter::run(CpuState& cpu, const AddressSpace& as,
                          u64 max_insns) {
  // Page tables only change in kernel context, between quanta, and every
  // change bumps the PhysMem page-table epoch. Entries are CR3-tagged, so a
  // process switch alone needs no flush: an idle NtYield loop keeps its
  // code-page translation across scheduling rounds.
  if (mem_->pt_epoch() != tlb_epoch_) {
    flush_tlb();
    tlb_epoch_ = mem_->pt_epoch();
  }
  if (btc_) return run_blocks(cpu, as, max_insns);
  StepInfo info;
  for (u64 i = 0; i < max_insns; ++i) {
    StepInfo one = exec_one(cpu, as);
    info.executed += one.executed;
    if (one.result != StepResult::kBudget) {
      one.executed = info.executed;
      return one;
    }
  }
  info.result = StepResult::kBudget;
  return info;
}

StepInfo Interpreter::run_blocks(CpuState& cpu, const AddressSpace& as,
                                 u64 max_insns) {
  StepInfo info;
  u64 executed = 0;
  auto stop = [&](StepInfo one) {
    one.executed = executed;
    return one;
  };
  auto entry_trap = [&](VAddr pc, TrapKind kind, const Fault* fault) {
    StepInfo t;
    t.pc = pc;
    t.result = StepResult::kTrap;
    t.trap = kind;
    if (fault) t.fault = *fault;
    at_block_start_ = true;
    return stop(t);
  };
  while (executed < max_insns) {
    const VAddr pc = cpu.pc();
    // Entry checks mirror the per-instruction path: within a block the pc
    // advances by kInsnSize (alignment preserved) and the body stays on the
    // start page (one fetch translation covers it), so checking here is
    // checking every instruction.
    if (pc % kInsnSize != 0) {
      return entry_trap(pc, TrapKind::kPcMisaligned, nullptr);
    }
    Fault fault;
    auto pc_pa = translate_cached(as, pc, AccessType::kExec, &fault);
    if (!pc_pa) return entry_trap(pc, TrapKind::kMemFault, &fault);
    TranslatedBlock* b = btc_->lookup(as.cr3(), pc);
    if (b && b->start_pa != *pc_pa) {
      // Same (cr3, va) now maps elsewhere — remapped since translation.
      btc_->evict_block(as.cr3(), pc);
      b = nullptr;
    }
    if (!b) b = btc_->translate(as.cr3(), pc, *pc_pa);
    if (!b) {
      // First slot undecodable: the same bad-opcode trap the per-insn
      // path raises after a successful fetch.
      return entry_trap(pc, TrapKind::kBadOpcode, nullptr);
    }
    const u32 n = static_cast<u32>(b->insns.size());
    const u32 take = static_cast<u32>(std::min<u64>(n, max_insns - executed));
    StepInfo one;
    if (!hooks_) {
      one = exec_cached<false>(cpu, as, *b, take);
    } else if (take == n && offer_block(*b) && hooks_->try_elide_block(*b)) {
      // The plugin accounted for all n instructions itself; elidable
      // bodies cannot trap (inert opcodes by construction, hint-approved
      // kDivu by the plugin's constant-divisor proof), so all n retire
      // through the fast body, a final kSyscall returning to the kernel.
      one = exec_cached<false>(cpu, as, *b, n);
    } else {
      one = exec_cached<true>(cpu, as, *b, take);
    }
    executed += one.executed;
    if (one.result != StepResult::kBudget) return stop(one);
  }
  info.result = StepResult::kBudget;
  info.executed = executed;
  return info;
}

bool Interpreter::offer_block(TranslatedBlock& b) {
  if (b.elidable_ops) return true;
  if (!b.hint_checked) {
    b.hint_checked = true;
    b.hint_elidable = hooks_->block_elide_hint(
        b.cr3, b.start_va, b.insns.data(), static_cast<u32>(b.insns.size()));
  }
  if (!b.hint_elidable) btc_->count_not_offered();
  return b.hint_elidable;
}

template <bool kInstrumented>
StepInfo Interpreter::exec_cached(CpuState& cpu, const AddressSpace& as,
                                  const TranslatedBlock& block, u32 count) {
  StepInfo info;
  const u64 epoch = btc_->evict_epoch();
  const Instruction* insns = block.insns.data();
  PAddr pa = block.start_pa;
  for (u32 i = 0; i < count; ++i) {
    // Copy before executing: a self-modifying store inside the block may
    // evict `block` (freeing insns) as a side effect of this instruction.
    const Instruction insn = insns[i];
    StepInfo one = exec_decoded<kInstrumented>(cpu, as, insn, pa);
    info.executed += one.executed;
    if (one.result != StepResult::kBudget) {
      one.executed = info.executed;
      return one;
    }
    if (btc_->evict_epoch() != epoch) {
      // A write hit some translated code frame. The predecoded body may be
      // stale from the next instruction on — re-enter the dispatch loop,
      // which re-fetches from live memory (per-instruction semantics).
      break;
    }
    pa += kInsnSize;
  }
  info.result = StepResult::kBudget;
  return info;
}

bool Interpreter::mem_read(const AddressSpace& as, VAddr va, unsigned size,
                           u32* value, PAddr* first_pa, Fault* fault) {
  u32 out = 0;
  for (unsigned i = 0; i < size; ++i) {
    auto pa = translate_cached(as, va + i, AccessType::kRead, fault);
    if (!pa) return false;
    if (i == 0) *first_pa = *pa;
    out |= static_cast<u32>(mem_->read8(*pa)) << (8 * i);
  }
  *value = out;
  return true;
}

bool Interpreter::mem_write(const AddressSpace& as, VAddr va, unsigned size,
                            u32 value, PAddr* first_pa, Fault* fault) {
  // Probe all bytes first so a partially-faulting store has no effect.
  PAddr pas[4] = {};
  for (unsigned i = 0; i < size; ++i) {
    auto pa = translate_cached(as, va + i, AccessType::kWrite, fault);
    if (!pa) return false;
    pas[i] = *pa;
  }
  *first_pa = pas[0];
  for (unsigned i = 0; i < size; ++i) {
    mem_->write8(pas[i], static_cast<u8>((value >> (8 * i)) & 0xff));
  }
  return true;
}

StepInfo Interpreter::exec_one(CpuState& cpu, const AddressSpace& as) {
  StepInfo info;
  info.pc = cpu.pc();

  auto trap = [&](TrapKind kind) {
    info.result = StepResult::kTrap;
    info.trap = kind;
    at_block_start_ = true;
    return info;
  };

  if (cpu.pc() % kInsnSize != 0) return trap(TrapKind::kPcMisaligned);

  // Fetch. Instructions are 8-byte aligned, so a fetch never crosses a page.
  Fault fault;
  auto pc_pa = translate_cached(as, cpu.pc(), AccessType::kExec, &fault);
  if (!pc_pa) {
    info.fault = fault;
    return trap(TrapKind::kMemFault);
  }
  auto decoded = decode(mem_->span(*pc_pa, kInsnSize));
  if (!decoded) return trap(TrapKind::kBadOpcode);
  return exec_decoded<true>(cpu, as, *decoded, *pc_pa);
}

template <bool kInstrumented>
StepInfo Interpreter::exec_decoded(CpuState& cpu, const AddressSpace& as,
                                   const Instruction& insn, PAddr pc_pa) {
  StepInfo info;
  info.pc = cpu.pc();
  Fault fault;

  auto trap = [&](TrapKind kind) {
    info.result = StepResult::kTrap;
    info.trap = kind;
    at_block_start_ = true;
    return info;
  };

  if (at_block_start_) {
    ++block_count_;
    at_block_start_ = false;
    if (hooks_) hooks_->on_block_begin(as.cr3(), cpu.pc());
  }

  std::conditional_t<kInstrumented, InsnEvent, NoEvent> ev;
  if constexpr (kInstrumented) {
    ev.cr3 = as.cr3();
    ev.pc = cpu.pc();
    ev.pc_pa = pc_pa;
    ev.insn = insn;
    ev.rs1_val = cpu.regs[insn.rs1];
    ev.rs2_val = cpu.regs[insn.rs2];
  }

  const u32 next_pc = cpu.pc() + kInsnSize;
  u32 new_pc = next_pc;
  auto& r = cpu.regs;
  const u32 a = cpu.regs[insn.rs1];
  const u32 b = cpu.regs[insn.rs2];

  auto do_load = [&](unsigned size) -> bool {
    VAddr ea = a + insn.imm;
    u32 value = 0;
    PAddr pa = 0;
    if (!mem_read(as, ea, size, &value, &pa, &fault)) return false;
    r[insn.rd] = value;
    if constexpr (kInstrumented) {
      ev.mem = MemAccess{ea, pa, static_cast<u8>(size), /*is_write=*/false};
    }
    return true;
  };
  auto do_store = [&](unsigned size) -> bool {
    VAddr ea = a + insn.imm;
    u32 mask = size == 4 ? 0xffffffffu : (1u << (8 * size)) - 1;
    PAddr pa = 0;
    if (!mem_write(as, ea, size, b & mask, &pa, &fault)) return false;
    if constexpr (kInstrumented) {
      ev.mem = MemAccess{ea, pa, static_cast<u8>(size), /*is_write=*/true};
    }
    return true;
  };
  auto set_flags = [&](u32 x, u32 y) {
    cpu.flag_eq = x == y;
    cpu.flag_lt_u = x < y;
    cpu.flag_lt_s = static_cast<i32>(x) < static_cast<i32>(y);
  };
  auto mem_trap = [&]() {
    info.fault = fault;
    return trap(TrapKind::kMemFault);
  };

  switch (insn.op) {
    case Opcode::kNop: break;
    case Opcode::kHalt:
      info.result = StepResult::kHalt;
      break;
    case Opcode::kMovi: r[insn.rd] = insn.imm; break;
    case Opcode::kMov: r[insn.rd] = a; break;
    case Opcode::kAddPc: r[insn.rd] = next_pc + insn.imm; break;

    case Opcode::kLd8:
      if (!do_load(1)) return mem_trap();
      break;
    case Opcode::kLd16:
      if (!do_load(2)) return mem_trap();
      break;
    case Opcode::kLd32:
      if (!do_load(4)) return mem_trap();
      break;
    case Opcode::kSt8:
      if (!do_store(1)) return mem_trap();
      break;
    case Opcode::kSt16:
      if (!do_store(2)) return mem_trap();
      break;
    case Opcode::kSt32:
      if (!do_store(4)) return mem_trap();
      break;

    case Opcode::kAdd: r[insn.rd] = a + b; break;
    case Opcode::kSub: r[insn.rd] = a - b; break;
    case Opcode::kMul: r[insn.rd] = a * b; break;
    case Opcode::kDivu:
      if (b == 0) return trap(TrapKind::kDivZero);
      r[insn.rd] = a / b;
      break;
    case Opcode::kAnd: r[insn.rd] = a & b; break;
    case Opcode::kOr: r[insn.rd] = a | b; break;
    case Opcode::kXor: r[insn.rd] = a ^ b; break;
    case Opcode::kShl: r[insn.rd] = a << (b & 31); break;
    case Opcode::kShr: r[insn.rd] = a >> (b & 31); break;

    case Opcode::kAddi: r[insn.rd] = a + insn.imm; break;
    case Opcode::kSubi: r[insn.rd] = a - insn.imm; break;
    case Opcode::kMuli: r[insn.rd] = a * insn.imm; break;
    case Opcode::kAndi: r[insn.rd] = a & insn.imm; break;
    case Opcode::kOri: r[insn.rd] = a | insn.imm; break;
    case Opcode::kXori: r[insn.rd] = a ^ insn.imm; break;
    case Opcode::kShli: r[insn.rd] = a << (insn.imm & 31); break;
    case Opcode::kShri: r[insn.rd] = a >> (insn.imm & 31); break;

    case Opcode::kCmp: set_flags(a, b); break;
    case Opcode::kCmpi: set_flags(a, insn.imm); break;

    case Opcode::kJmp: new_pc = next_pc + insn.imm; break;
    case Opcode::kJr: new_pc = a; break;
    case Opcode::kBeq:
      if (cpu.flag_eq) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kBne:
      if (!cpu.flag_eq) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kBlt:
      if (cpu.flag_lt_s) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kBge:
      if (!cpu.flag_lt_s) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kBltu:
      if (cpu.flag_lt_u) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kBgeu:
      if (!cpu.flag_lt_u) new_pc = next_pc + insn.imm;
      break;
    case Opcode::kCall:
      r[LR] = next_pc;
      new_pc = next_pc + insn.imm;
      break;
    case Opcode::kCallr:
      r[LR] = next_pc;
      new_pc = a;
      break;
    case Opcode::kRet: new_pc = r[LR]; break;

    case Opcode::kPush: {
      u32 sp = r[SP] - 4;
      PAddr pa = 0;
      if (!mem_write(as, sp, 4, a, &pa, &fault)) return mem_trap();
      r[SP] = sp;
      if constexpr (kInstrumented) {
        ev.mem = MemAccess{sp, pa, 4, /*is_write=*/true};
      }
      break;
    }
    case Opcode::kPop: {
      u32 value = 0;
      PAddr pa = 0;
      if (!mem_read(as, r[SP], 4, &value, &pa, &fault)) return mem_trap();
      if constexpr (kInstrumented) {
        ev.mem = MemAccess{r[SP], pa, 4, /*is_write=*/false};
      }
      r[insn.rd] = value;
      r[SP] += 4;
      break;
    }

    case Opcode::kSyscall: info.result = StepResult::kSyscall; break;
    case Opcode::kBrk: return trap(TrapKind::kBreak);
  }

  cpu.set_pc(new_pc);
  ++instr_count_;
  info.executed = 1;
  if constexpr (kInstrumented) ev.instr_index = instr_count_;
  if (ends_block(insn.op)) at_block_start_ = true;
  if constexpr (kInstrumented) {
    if (hooks_) hooks_->on_insn_retired(ev, as);
  }
  return info;
}

template StepInfo Interpreter::exec_decoded<true>(CpuState&,
                                                  const AddressSpace&,
                                                  const Instruction&, PAddr);
template StepInfo Interpreter::exec_decoded<false>(CpuState&,
                                                   const AddressSpace&,
                                                   const Instruction&, PAddr);

}  // namespace faros::vm
