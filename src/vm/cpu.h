// FV32 interpreter with instruction-level analysis hooks — the moral
// equivalent of PANDA's instrumented QEMU: an attached plugin observes every
// retired instruction (grouped into basic blocks) together with its memory
// access, which is all the FAROS taint engine needs.
//
// Execution has two gears. With the block-translation cache enabled (the
// default, see vm/btcache.h) the run loop dispatches whole predecoded basic
// blocks: fetch-translate + decode happen once per block instead of once per
// instruction, and a plugin may approve running register-only blocks
// (optionally ending in a syscall) through an uninstrumented fast body
// (ExecHooks::try_elide_block). With the cache disabled the historical
// per-instruction loop runs unchanged. Both gears retire bit-identical
// architectural state and event streams.
#pragma once

#include <memory>
#include <optional>

#include "common/types.h"
#include "vm/isa.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros::vm {

class BlockCache;
struct TranslatedBlock;

/// Architectural register state of one hardware thread.
struct CpuState {
  u32 regs[kNumRegs] = {};
  bool flag_eq = false;
  bool flag_lt_s = false;
  bool flag_lt_u = false;

  u32 pc() const { return regs[PC]; }
  void set_pc(u32 v) { regs[PC] = v; }
};

/// Why Interpreter::run returned.
enum class StepResult {
  kBudget,   // instruction budget exhausted (scheduler quantum over)
  kSyscall,  // SYSCALL retired; pc already advanced past it
  kHalt,     // HALT retired
  kTrap,     // the instruction trapped; see TrapKind/Fault
};

enum class TrapKind {
  kNone,
  kMemFault,      // translation/protection failure; Fault has details
  kBadOpcode,
  kDivZero,
  kPcMisaligned,  // pc not 8-byte aligned
  kBreak,         // BRK retired
};

const char* trap_kind_name(TrapKind kind);

struct StepInfo {
  StepResult result = StepResult::kBudget;
  TrapKind trap = TrapKind::kNone;
  Fault fault;       // valid when trap == kMemFault
  VAddr pc = 0;      // pc of the instruction that stopped execution
  u64 executed = 0;  // instructions retired by this run() call
};

/// Memory access performed by a retired instruction.
struct MemAccess {
  VAddr va = 0;
  PAddr pa = 0;  // physical address of the first byte
  u8 size = 0;
  bool is_write = false;
};

/// Everything an analysis plugin learns about one retired instruction.
struct InsnEvent {
  u64 instr_index = 0;  // global retired-instruction counter
  PAddr cr3 = 0;        // address space identity (the process tag source)
  VAddr pc = 0;
  PAddr pc_pa = 0;      // physical address of the instruction bytes
  Instruction insn;
  std::optional<MemAccess> mem;
  u32 rs1_val = 0;  // pre-execution operand values
  u32 rs2_val = 0;
};

/// Plugin interface. Callbacks fire during replay/execution in retirement
/// order; `as` is valid only for the duration of the call.
class ExecHooks {
 public:
  virtual ~ExecHooks() = default;
  /// A new basic block begins at `pc` in the space identified by `cr3`.
  virtual void on_block_begin(PAddr cr3, VAddr pc) {
    (void)cr3;
    (void)pc;
  }
  /// One instruction retired.
  virtual void on_insn_retired(const InsnEvent& ev, const AddressSpace& as) {
    (void)ev;
    (void)as;
  }
  /// Asked once per full-length dispatch of a cached block whose opcodes
  /// are all elidable: taint_inert() ones, kDivu in a block the plugin's
  /// block_elide_hint approved, and at most one kSyscall, always last. Such
  /// a body has no memory ops and cannot trap; its register effect is
  /// summed up by `block.reads`/`block.writes`. Returning true means the
  /// plugin has accounted for all the block's instructions itself and the
  /// interpreter may execute it without per-instruction callbacks;
  /// on_block_begin still fires, and a final kSyscall still returns to the
  /// kernel. The plugin may keep a memo in the block's memo_* fields. The
  /// default keeps every plugin on the instrumented path.
  virtual bool try_elide_block(TranslatedBlock& block) {
    (void)block;
    return false;
  }
  /// Asked at most once per translated block that is not elidable_ops
  /// (vm/btcache.h): does the plugin hold a static proof that this exact
  /// instruction sequence may nevertheless be offered for elision (e.g. a
  /// kDivu whose divisor is a proven non-zero constant)? The verdict is
  /// cached on the TranslatedBlock; SMC evicts and retranslates, so a
  /// changed body is re-asked against its new bytes. Returning true only
  /// makes the block *eligible* — try_elide_block still runs its dynamic
  /// guard on every dispatch.
  virtual bool block_elide_hint(PAddr cr3, VAddr pc,
                                const Instruction* insns, u32 count) {
    (void)cr3;
    (void)pc;
    (void)insns;
    (void)count;
    return false;
  }
};

/// Executes guest instructions. Holds the global instruction counter that
/// record/replay keys on; the counter survives across processes.
///
/// The block cache registers itself as the PhysMem code-write observer, so
/// at most one cache-enabled Interpreter may be attached to a PhysMem at a
/// time (the machine layer guarantees this: one interpreter per machine).
class Interpreter {
 public:
  explicit Interpreter(PhysMem& mem);
  ~Interpreter();

  /// Attaches the analysis plugin. A different plugin than before drops
  /// what the previous one cached on translated blocks.
  void set_hooks(ExecHooks* hooks);
  ExecHooks* hooks() const { return hooks_; }

  /// Toggles the block-translation cache (enabled by default). Disabling
  /// restores the historical per-instruction fetch/decode/execute loop.
  void set_block_cache_enabled(bool on);
  bool block_cache_enabled() const { return btc_ != nullptr; }
  /// The live cache, or nullptr when disabled (stats, tests).
  const BlockCache* block_cache() const { return btc_.get(); }

  /// Kernel-driven invalidation: a physical frame was recycled, or an
  /// address space is being destroyed. No-ops when the cache is disabled.
  void invalidate_code_frame(PAddr frame_base);
  void evict_cr3_blocks(PAddr cr3);

  u64 instr_count() const { return instr_count_; }

  /// Runs at most `max_insns` instructions of `cpu` inside `as`.
  StepInfo run(CpuState& cpu, const AddressSpace& as, u64 max_insns);

  /// Number of basic blocks entered so far (for tests/stats).
  u64 block_count() const { return block_count_; }

  u64 tlb_hits() const { return tlb_hits_; }
  u64 tlb_misses() const { return tlb_misses_; }

 private:
  StepInfo exec_one(CpuState& cpu, const AddressSpace& as);

  /// Post-decode execution of one instruction (block-begin bookkeeping,
  /// the opcode switch, retirement). kInstrumented selects whether the
  /// InsnEvent is built and on_insn_retired fired; both variants retire
  /// identical architectural state.
  template <bool kInstrumented>
  StepInfo exec_decoded(CpuState& cpu, const AddressSpace& as,
                        const Instruction& insn, PAddr pc_pa);

  /// Block-dispatch run loop (cache enabled).
  StepInfo run_blocks(CpuState& cpu, const AddressSpace& as, u64 max_insns);

  /// Elision eligibility for a cached block: elidable_ops, or
  /// hint-approved by the plugin (ExecHooks::block_elide_hint, asked once
  /// per translation). A block that is neither counts as not offered.
  bool offer_block(TranslatedBlock& b);

  /// Executes up to `count` predecoded instructions of a cached block,
  /// stopping early on traps/halt/syscall or when an eviction epoch change
  /// says the predecoded bytes may be stale (self-modifying code).
  template <bool kInstrumented>
  StepInfo exec_cached(CpuState& cpu, const AddressSpace& as,
                       const TranslatedBlock& block, u32 count);

  bool mem_read(const AddressSpace& as, VAddr va, unsigned size, u32* value,
                PAddr* first_pa, Fault* fault);
  bool mem_write(const AddressSpace& as, VAddr va, unsigned size, u32 value,
                 PAddr* first_pa, Fault* fault);

  /// TLB-backed user-mode translation. Entries are tagged with CR3 and
  /// survive across run() calls; run() flushes the TLB only when the
  /// PhysMem page-table epoch moved since the last run() (page tables only
  /// change in kernel context, between quanta, and every write bumps it).
  std::optional<PAddr> translate_cached(const AddressSpace& as, VAddr va,
                                        AccessType type, Fault* fault);
  void flush_tlb();

  struct TlbEntry {
    PAddr cr3 = ~0ull;
    u32 vpn = 0;
    u32 pte = 0;
  };
  static constexpr u32 kTlbSize = 64;  // direct mapped, power of two

  PhysMem* mem_;
  ExecHooks* hooks_ = nullptr;
  std::unique_ptr<BlockCache> btc_;  // null when the cache is disabled
  u64 instr_count_ = 0;
  u64 block_count_ = 0;
  bool at_block_start_ = true;
  TlbEntry tlb_[kTlbSize];
  u64 tlb_epoch_ = 0;  // PhysMem::pt_epoch() the TLB contents reflect
  u64 tlb_hits_ = 0;
  u64 tlb_misses_ = 0;
};

}  // namespace faros::vm
