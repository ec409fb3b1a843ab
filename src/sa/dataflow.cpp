#include "sa/dataflow.h"

#include <set>

namespace faros::sa {

namespace {

/// Origin merge for two values flowing into one: a shared single def site
/// survives, disagreement (or a value with no site) collapses to 0.
u32 merge_origin(u32 a, u32 b) {
  if (a == b) return a;
  if (a == 0) return b;
  if (b == 0) return a;
  return 0;
}

}  // namespace

AbsVal join(const AbsVal& a, const AbsVal& b) {
  if (a.kind == ValKind::kUnknown) {
    AbsVal r = b;
    r.from_load = a.from_load || b.from_load;
    return r;
  }
  if (b.kind == ValKind::kUnknown) {
    AbsVal r = a;
    r.from_load = a.from_load || b.from_load;
    return r;
  }
  bool loaded = a.from_load || b.from_load;
  if (a.kind == ValKind::kConst && b.kind == ValKind::kConst && a.c == b.c) {
    return AbsVal::konst(a.c, loaded);
  }
  return AbsVal::varies(loaded, a.origin == b.origin ? a.origin : 0);
}

AbsVal fold_const(vm::Opcode op, const AbsVal& a, const AbsVal& b) {
  using vm::Opcode;
  bool loaded = a.from_load || b.from_load;
  if (a.kind != ValKind::kConst || b.kind != ValKind::kConst) {
    // Arithmetic against a constant (or an origin-free unknown, like a
    // loop counter) keeps the single def site: "alloc base + i" still
    // points at the allocating syscall.
    return AbsVal::varies(loaded, merge_origin(a.origin, b.origin));
  }
  u32 x = a.c, y = b.c;
  switch (op) {
    case Opcode::kAdd:
    case Opcode::kAddi: return AbsVal::konst(x + y, loaded);
    case Opcode::kSub:
    case Opcode::kSubi: return AbsVal::konst(x - y, loaded);
    case Opcode::kMul:
    case Opcode::kMuli: return AbsVal::konst(x * y, loaded);
    case Opcode::kDivu: return y ? AbsVal::konst(x / y, loaded)
                                 : AbsVal::varies(loaded);  // traps at runtime
    case Opcode::kAnd:
    case Opcode::kAndi: return AbsVal::konst(x & y, loaded);
    case Opcode::kOr:
    case Opcode::kOri: return AbsVal::konst(x | y, loaded);
    case Opcode::kXor:
    case Opcode::kXori: return AbsVal::konst(x ^ y, loaded);
    case Opcode::kShl:
    case Opcode::kShli: return AbsVal::konst(x << (y & 31), loaded);
    case Opcode::kShr:
    case Opcode::kShri: return AbsVal::konst(x >> (y & 31), loaded);
    default: return AbsVal::varies(loaded);
  }
}

void transfer(const vm::Instruction& insn, u32 va, RegState& st) {
  using vm::Opcode;
  auto& r = st.regs;
  const u32 next = va + vm::kInsnSize;
  switch (insn.op) {
    case Opcode::kMovi: r[insn.rd] = AbsVal::konst(insn.imm); break;
    case Opcode::kMov: r[insn.rd] = r[insn.rs1]; break;
    case Opcode::kAddPc: r[insn.rd] = AbsVal::konst(next + insn.imm); break;

    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32: r[insn.rd] = AbsVal::varies(true, va); break;

    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDivu:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
      if ((insn.op == Opcode::kXor || insn.op == Opcode::kSub) &&
          insn.rs1 == insn.rs2) {
        r[insn.rd] = AbsVal::konst(0);  // the idiomatic register clear
      } else {
        r[insn.rd] = fold_const(insn.op, r[insn.rs1], r[insn.rs2]);
      }
      break;

    case Opcode::kAddi:
    case Opcode::kSubi:
    case Opcode::kMuli:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri:
      r[insn.rd] = fold_const(insn.op, r[insn.rs1], AbsVal::konst(insn.imm));
      break;

    case Opcode::kPush:
      r[vm::SP] = fold_const(Opcode::kSubi, r[vm::SP], AbsVal::konst(4));
      break;
    case Opcode::kPop:
      r[insn.rd] = AbsVal::varies(true, va);
      if (insn.rd != vm::SP) {
        r[vm::SP] = fold_const(Opcode::kAddi, r[vm::SP], AbsVal::konst(4));
      }
      break;

    case Opcode::kCall:
    case Opcode::kCallr: r[vm::LR] = AbsVal::konst(next); break;

    // Syscall results (handles, alloc bases, recv lengths) are as
    // runtime-derived as loaded bytes — both carry the from_load mark, so
    // control flow through kernel-produced values stays recognisable.
    case Opcode::kSyscall: r[vm::R0] = AbsVal::varies(true, va); break;

    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32:
    case Opcode::kCmp:
    case Opcode::kCmpi:
    case Opcode::kJmp:
    case Opcode::kJr:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kRet:
    case Opcode::kBrk:
      break;  // no register effects
  }
}

DataflowResult run_dataflow(const Cfg& cfg, const CallModel* model) {
  using vm::Opcode;
  DataflowResult res;
  if (cfg.blocks.empty()) return res;

  // Every block start that is a descent root gets the all-kVaries boundary
  // state: the entry, every export, and every resolved indirect target
  // (recover_cfg queued exactly these plus branch targets; re-deriving the
  // root set here keeps the two passes decoupled).
  std::set<u32> roots;
  if (cfg.blocks.count(cfg.entry)) roots.insert(cfg.entry);
  for (const auto& site : cfg.indirects) {
    if (site.resolved && cfg.blocks.count(site.target)) {
      roots.insert(site.target);
    }
  }
  // Exports are externally callable no matter how many internal call sites
  // they have; any block with no intra-image predecessor must also be an
  // external root.
  for (u32 va : cfg.export_vas) {
    if (cfg.blocks.count(va)) roots.insert(va);
  }
  std::set<u32> has_pred;
  for (const auto& [start, blk] : cfg.blocks) {
    (void)start;
    for (const Edge& e : blk.succs) has_pred.insert(e.target);
  }
  for (const auto& [start, blk] : cfg.blocks) {
    (void)blk;
    if (!has_pred.count(start)) roots.insert(start);
  }

  for (const auto& [start, blk] : cfg.blocks) {
    (void)blk;
    res.block_in[start] = RegState{};  // all kUnknown
  }
  for (u32 root : roots) res.block_in[root] = RegState::all_varies();

  std::set<u32> worklist;
  for (const auto& [start, blk] : cfg.blocks) {
    (void)blk;
    worklist.insert(start);
  }

  while (!worklist.empty()) {
    u32 start = *worklist.begin();
    worklist.erase(worklist.begin());
    const BasicBlock& blk = cfg.blocks.at(start);

    RegState st = res.block_in.at(start);
    for (size_t i = 0; i < blk.insns.size(); ++i) {
      const vm::Instruction& insn = blk.insns[i];
      u32 va = blk.insn_va(i);
      if (vm::is_indirect_branch(insn.op)) {
        res.indirect_value[va] = st.regs[insn.rs1];
      }
      transfer(insn, va, st);
    }

    // Call-terminator edge semantics. Without a model, a call clobbers
    // everything along every outgoing edge (callee effects unknown, callee
    // entry assumes nothing). With a model, the kCall edge carries the
    // caller's state into the callee and the fall edge carries whatever
    // the model says comes back — possibly nothing at all.
    RegState out = st;
    RegState callee_in = st;
    bool fall_reachable = true;
    bool call_term = !blk.insns.empty() && vm::is_call(blk.terminator().op);
    if (call_term) {
      if (!model) {
        out = RegState::all_varies();
        callee_in = out;
      } else {
        u32 site_va = blk.insn_va(blk.insns.size() - 1);
        const vm::Instruction& term = blk.terminator();
        bool has_target = false;
        u32 target = 0;
        if (term.op == Opcode::kCall) {
          if (auto t = vm::direct_target(term, site_va)) {
            has_target = true;
            target = *t;
          }
        } else {
          for (const IndirectSite& s : cfg.indirects) {
            if (s.va == site_va && s.resolved) {
              has_target = true;
              target = s.target;
              break;
            }
          }
        }
        fall_reachable = model->call_out(site_va, has_target, target, st, out);
      }
    }
    for (const Edge& e : blk.succs) {
      if (call_term && e.kind != EdgeKind::kCall && !fall_reachable) continue;
      const RegState& eout =
          call_term && e.kind == EdgeKind::kCall ? callee_in : out;
      auto it = res.block_in.find(e.target);
      if (it == res.block_in.end()) continue;
      RegState merged;
      for (u32 i = 0; i < vm::kNumRegs; ++i) {
        merged.regs[i] = join(it->second.regs[i], eout.regs[i]);
      }
      if (!(merged == it->second)) {
        it->second = merged;
        worklist.insert(e.target);
      }
    }
  }
  return res;
}

}  // namespace faros::sa
