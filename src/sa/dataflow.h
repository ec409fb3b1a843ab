// Forward dataflow over the recovered CFG: a per-register constant /
// taint-shape lattice propagated by a worklist. Its one job is to prove
// things about indirect control flow before any instruction executes:
// resolve kMovi/kAddPc-fed kJr/kCallr sites, and tell whether a branch
// register is a known constant, an unknown, or something derived from
// memory or a syscall result (the classic "loaded pointer" shape every
// injection loader exhibits).
//
// Lattice per register: kUnknown (bottom, never written on this path) ->
// kConst(c) -> kVaries (top), plus a monotone from_load bit that survives
// copies and arithmetic. Constant folding mirrors src/vm/cpu.cpp exactly
// (u32 wrap, shift masking) so a "resolved" target is the address the
// interpreter would really jump to.
#pragma once

#include <array>
#include <map>

#include "sa/cfg.h"

namespace faros::sa {

enum class ValKind : u8 {
  kUnknown = 0,  // lattice bottom: no path has defined the register yet
  kConst,        // known 32-bit constant
  kVaries,       // lattice top: runtime-dependent
};

struct AbsVal {
  ValKind kind = ValKind::kUnknown;
  u32 c = 0;               // valid when kind == kConst
  // (Transitively) derived from a memory load or a syscall result — a
  // value that only exists at runtime. The static mirror of a taint mark.
  bool from_load = false;
  // Definition site of a runtime-derived value: the va of the single
  // load / pop / syscall that produced it (0 = none, or merged from
  // distinct sites). Survives copies and arithmetic against values with
  // no origin of their own, so "alloc base + loop counter" still points
  // at the allocating syscall — the static analogue of a provenance tag.
  u32 origin = 0;

  bool operator==(const AbsVal&) const = default;

  static AbsVal konst(u32 v, bool loaded = false) {
    return AbsVal{ValKind::kConst, v, loaded, 0};
  }
  static AbsVal varies(bool loaded = false, u32 origin = 0) {
    return AbsVal{ValKind::kVaries, 0, loaded, origin};
  }
};

/// Lattice join (path merge).
AbsVal join(const AbsVal& a, const AbsVal& b);

struct RegState {
  std::array<AbsVal, vm::kNumRegs> regs{};
  bool operator==(const RegState&) const = default;

  static RegState all_varies() {
    RegState s;
    s.regs.fill(AbsVal::varies());
    return s;
  }
};

/// Abstract-interprets one instruction at `va` over `st` in place.
/// Control-flow side effects (call clobbering) are edge semantics and live
/// in run_dataflow, not here.
void transfer(const vm::Instruction& insn, u32 va, RegState& st);

/// Constant folding of rd = a op b, shared with the summary layer; mirrors
/// cpu.cpp exactly (u32 wrap, 5-bit shift masks, divu-by-zero traps).
AbsVal fold_const(vm::Opcode op, const AbsVal& a, const AbsVal& b);

/// Models the register effects of a call terminator. run_dataflow without
/// a model keeps the historical semantics: every outgoing edge of a call
/// block is clobbered to all-kVaries. With a model, the kCall edge carries
/// the caller's state into the callee and the fall-through edge carries
/// whatever `call_out` produces — the hook the interprocedural summary
/// layer (sa/summary.h) plugs into.
class CallModel {
 public:
  virtual ~CallModel() = default;
  /// Fills `out` with the register state after the call at `site_va`
  /// returns. `target` is valid when `has_target` (direct call, or a
  /// resolved kCallr). Returns false when the callee provably never
  /// returns — the fall-through edge is then unreachable. The default is
  /// the sound fallback: clobber everything, always returns.
  virtual bool call_out(u32 site_va, bool has_target, u32 target,
                        const RegState& at_call, RegState& out) const {
    (void)site_va;
    (void)has_target;
    (void)target;
    (void)at_call;
    out = RegState::all_varies();
    return true;
  }
};

struct DataflowResult {
  /// Converged in-state per block (keyed by block start va).
  std::map<u32, RegState> block_in;
  /// Abstract value of rs1 at each kJr/kCallr site, keyed by site va.
  std::map<u32, AbsVal> indirect_value;
};

/// Worklist fixpoint over `cfg`. Roots (entry, exports, resolved indirect
/// targets) start all-kVaries. Call terminators are modelled by `model`;
/// null keeps the historical clobber-all-edges semantics.
DataflowResult run_dataflow(const Cfg& cfg, const CallModel* model = nullptr);

}  // namespace faros::sa
