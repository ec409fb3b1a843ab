// FV32 interpreter with instruction-level analysis hooks — the moral
// equivalent of PANDA's instrumented QEMU: an attached plugin observes every
// retired instruction (grouped into basic blocks) together with its memory
// access, which is all the FAROS taint engine needs.
//
// The run loop dispatches whole predecoded basic blocks through the
// block-translation cache (vm/btcache.h): fetch-translate + decode happen
// once per block instead of once per instruction, a block jumps straight
// to its linked successor with no translation or lookup at all (block
// chaining, also across run() calls through the exit record), and a
// plugin may approve running register-only blocks (optionally ending in a
// syscall) through an uninstrumented fast body (ExecHooks::try_elide_block)
// and may grant a block it approved and accounted, so that later
// full-length dispatches skip the plugin while its epoch holds
// (ExecHooks::elision_grants). The fast body is one tight register-only
// loop: no InsnEvent, StepInfo or Fault per instruction, only the exact
// instruction and dynamic-block counts; it also runs every elidable block
// when no plugin is attached. The historical per-instruction loop is kept
// only as the test reference (set_block_cache_enabled(false)); it retires
// bit-identical architectural state and event streams.
#pragma once

#include <memory>
#include <optional>

#include "common/types.h"
#include "vm/btcache.h"
#include "vm/isa.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros::vm {

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

/// Per-dispatch deltas of granted blocks (ExecHooks::elision_grants), owned
/// by the plugin: each full-length dispatch of a granted block adds one
/// block, its instruction count and its stamped tainted-fetch count. The
/// plugin folds the sums into its totals wherever it reports them.
struct ElisionTally {
  u64 blocks = 0;
  u64 insns = 0;
  u64 fetches = 0;
};

/// What a plugin exposes for elision grants: the epoch a stamped block's
/// grant must equal, and the tally the interpreter adds granted dispatches
/// to. Both null (the default): no grants.
struct ElisionGrants {
  const u64* epoch = nullptr;
  ElisionTally* tally = nullptr;
};

/// Plugin interface. Callbacks fire during replay/execution in retirement
/// order; `as` is valid only for the duration of the call.
class ExecHooks {
 public:
  virtual ~ExecHooks() = default;
  /// One instruction retired.
  virtual void on_insn_retired(const InsnEvent& ev, const AddressSpace& as) {
    (void)ev;
    (void)as;
  }
  /// Asked once per dispatch of a cached block whose opcodes are all
  /// elidable (OpRow::elidable in vm/isa.h; a kSyscall only last). Such a
  /// body has no memory ops; its register effect is summed up by
  /// `block.reads`/`block.writes`, and it can stop early only at a kDivu
  /// dividing by zero. The dispatch may cover only a prefix of the block
  /// when the instruction budget ends inside it; `reads`, the syscall
  /// tail and the block's code bytes all cover the whole block, so a guard
  /// that approves the whole body is conservative for any prefix. A block
  /// may be a superblock (vm/btcache.h): a chained segment after a direct
  /// kJmp, whose bytes block.pa_of() locates. Returning true lets the
  /// interpreter run the body through its register-only fast body, with no
  /// per-instruction callbacks or events, and then report what retired
  /// through on_block_elided; a final kSyscall still returns to the
  /// kernel. The guard
  /// must leave the plugin's analysis state untouched: the body has not
  /// run yet. The default keeps every plugin on the instrumented path.
  virtual bool try_elide_block(const TranslatedBlock& block) {
    (void)block;
    return false;
  }
  /// The approved body ran: its first `retired` instructions retired (all
  /// of them, the prefix the budget allowed, or the prefix before a
  /// trapping kDivu). The plugin accounts for exactly those, as the
  /// instrumented path would have. After a full-length body it may stamp
  /// a grant in `grant`, with the body's tainted-fetch count in
  /// `grant_fetches` (see elision_grants).
  virtual void on_block_elided(TranslatedBlock& block, u32 retired) {
    (void)block;
    (void)retired;
  }
  /// Elision grants, read once by Interpreter::set_hooks. A plugin that
  /// stamps `block.grant = *epoch` promises: while its epoch still equals
  /// the grant, try_elide_block would approve the block again and a
  /// full-length on_block_elided would change nothing but add (1 block, n
  /// insns, `grant_fetches` fetches) to its totals. The interpreter then
  /// runs such a block's full-length dispatches straight through the fast
  /// body, adds those deltas to `*tally` and calls neither hook; a kDivu
  /// trap still calls on_block_elided with the retired prefix, and a
  /// budget cut takes the guard path. The default exposes none: every
  /// dispatch asks.
  virtual ElisionGrants elision_grants() { return {}; }
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

  /// Attaches the analysis plugin and reads its elision grants. A
  /// different plugin than before drops what the previous one cached on
  /// translated blocks (their grants).
  void set_hooks(ExecHooks* hooks);
  ExecHooks* hooks() const { return hooks_; }

  /// Toggles the block-translation cache (enabled by default). Disabling
  /// restores the historical per-instruction fetch/decode/execute loop,
  /// the reference the tests compare the cache against. Replacing the
  /// cache clears the exit records.
  void set_block_cache_enabled(bool on);
  /// The live cache, or nullptr when disabled (stats, tests).
  const BlockCache* block_cache() const { return btc_.get(); }

  /// Kernel-driven invalidation: a physical frame was recycled, or an
  /// address space is being destroyed. No-ops when the cache is disabled.
  void invalidate_code_frame(PAddr frame_base);
  void evict_cr3_blocks(PAddr cr3);

  u64 instr_count() const { return instr_count_; }

  /// Runs at most `max_insns` instructions of `cpu` inside `as`.
  StepInfo run(CpuState& cpu, const AddressSpace& as, u64 max_insns);

  u64 tlb_misses() const { return tlb_misses_; }

 private:
  StepInfo exec_one(CpuState& cpu, const AddressSpace& as);

  /// Post-decode execution of one instruction (the opcode switch,
  /// retirement). kInstrumented selects whether the InsnEvent is built
  /// and on_insn_retired fired; both variants retire identical
  /// architectural state.
  template <bool kInstrumented>
  StepInfo exec_decoded(CpuState& cpu, const AddressSpace& as,
                        const Instruction& insn, PAddr pc_pa);

  /// Block-dispatch run loop (cache enabled): follows and sets successor
  /// links (vm/btcache.h), starting from the space's exit record.
  StepInfo run_blocks(CpuState& cpu, const AddressSpace& as, u64 max_insns);

  /// Executes up to `count` predecoded instructions of a cached block,
  /// stopping early on traps/halt/syscall or when an eviction epoch change
  /// says the predecoded bytes may be stale (self-modifying code).
  template <bool kInstrumented>
  StepInfo exec_cached(CpuState& cpu, const AddressSpace& as,
                       const TranslatedBlock& block, u32 count);

  /// The register-only fast body: runs up to `count` instructions of an
  /// elidable block, stopping after a final kSyscall or at a kDivu
  /// dividing by zero (which does not retire). Inlined into run_blocks.
  inline StepInfo exec_fast(CpuState& cpu, const TranslatedBlock& block,
                            u32 count);

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

  /// Where an address space left the cache at the end of its last run()
  /// call, so that its next run() resumes through a successor link: `from`
  /// is the link its next dispatch follows or sets, readable only while
  /// the cache's eviction epoch equals `epoch` (the same rule as a link),
  /// and `page` the virtual page of the block it leaves. `from` is that
  /// block's own link or, after a budget cut inside the block, `resume`,
  /// which the record owns: a cut block's link keeps its usual successor.
  /// Direct mapped by cr3. run() clears every record whenever it flushes
  /// the TLB (page tables changed), set_block_cache_enabled whenever it
  /// replaces the cache.
  struct ExitRecord {
    PAddr cr3 = ~0ull;
    BlockLink* from = nullptr;
    u64 epoch = ~0ull;
    VAddr page = 0;
    BlockLink resume;
  };
  static constexpr u32 kExitSlots = 16;  // power of two
  void clear_exits();

  struct TlbEntry {
    PAddr cr3 = ~0ull;
    u32 vpn = 0;
    u32 pte = 0;
  };
  /// Direct mapped, power of two. Indexed by vpn ^ (cr3 >> kPageShift):
  /// processes running one image at one virtual address keep separate
  /// slots for its pages instead of evicting each other every round.
  static constexpr u32 kTlbSize = 64;

  PhysMem* mem_;
  ExecHooks* hooks_ = nullptr;
  ElisionGrants grants_;  // hooks_->elision_grants(), read at set_hooks
  std::unique_ptr<BlockCache> btc_;  // null when the cache is disabled
  u64 instr_count_ = 0;
  TlbEntry tlb_[kTlbSize];
  u64 tlb_epoch_ = 0;  // PhysMem::pt_epoch() the TLB contents reflect
  u64 tlb_misses_ = 0;
  ExitRecord exits_[kExitSlots];
};

}  // namespace faros::vm
