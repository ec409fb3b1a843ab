// FV32 interpreter semantics: every instruction class, flags, traps,
// memory faults, stack ops, hooks, basic-block accounting and TLB coherence
// across quanta.
#include <gtest/gtest.h>

#include "vm/assembler.h"
#include "vm/cpu.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros::vm {
namespace {

constexpr VAddr kCodeBase = 0x10000;
constexpr VAddr kStackTop = 0x80000;
constexpr VAddr kDataBase = 0x40000;

struct CpuEnv {
  PhysMem mem{1u << 20};
  FrameAllocator frames{0};
  AddressSpace as;
  Interpreter interp{mem};
  CpuState cpu;

  CpuEnv() : frames(mem.num_frames()) {
    frames.reserve(0);
    as = AddressSpace::create(mem, frames).value();
    EXPECT_TRUE(as.map_alloc(kStackTop - 0x2000, 0x2000,
                             kPteUser | kPteWrite)
                    .ok());
    EXPECT_TRUE(
        as.map_alloc(kDataBase, 0x1000, kPteUser | kPteWrite).ok());
    cpu.regs[SP] = kStackTop - 16;
  }

  void load(const Assembler& a, VAddr base = kCodeBase) {
    auto blob = a.assemble(base);
    ASSERT_TRUE(blob.ok()) << blob.error().message;
    ASSERT_TRUE(as.map_alloc(base, static_cast<u32>(blob.value().size()),
                             kPteUser | kPteWrite | kPteExec)
                    .ok());
    ASSERT_TRUE(as.copy_in(base, blob.value(), false).ok());
    cpu.set_pc(base);
  }

  StepInfo run(u64 budget = 100000) { return interp.run(cpu, as, budget); }
};

TEST(CpuAlu, MoviMovAndArithmetic) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 20);
  a.movi(R2, 22);
  a.add(R3, R1, R2);
  a.sub(R4, R3, R1);
  a.mul(R5, R1, R2);
  a.mov(R6, R5);
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R3], 42u);
  EXPECT_EQ(env.cpu.regs[R4], 22u);
  EXPECT_EQ(env.cpu.regs[R5], 440u);
  EXPECT_EQ(env.cpu.regs[R6], 440u);
}

TEST(CpuAlu, LogicalAndShifts) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 0xf0f0);
  a.movi(R2, 0x0ff0);
  a.and_(R3, R1, R2);
  a.or_(R4, R1, R2);
  a.xor_(R5, R1, R2);
  a.movi(R6, 2);
  a.shl(R7, R1, R6);
  a.shr(R8, R1, R6);
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R3], 0x00f0u);
  EXPECT_EQ(env.cpu.regs[R4], 0xfff0u);
  EXPECT_EQ(env.cpu.regs[R5], 0xff00u);
  EXPECT_EQ(env.cpu.regs[R7], 0xf0f0u << 2);
  EXPECT_EQ(env.cpu.regs[R8], 0xf0f0u >> 2);
}

TEST(CpuAlu, ImmediateForms) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 100);
  a.addi(R2, R1, -1);
  a.subi(R3, R1, 30);
  a.muli(R4, R1, 3);
  a.andi(R5, R1, 0x6);
  a.ori(R6, R1, 0x3);
  a.xori(R7, R1, 0xff);
  a.shli(R8, R1, 4);
  a.shri(R9, R1, 2);
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R2], 99u);
  EXPECT_EQ(env.cpu.regs[R3], 70u);
  EXPECT_EQ(env.cpu.regs[R4], 300u);
  EXPECT_EQ(env.cpu.regs[R5], 100u & 0x6);
  EXPECT_EQ(env.cpu.regs[R6], 100u | 0x3);
  EXPECT_EQ(env.cpu.regs[R7], 100u ^ 0xffu);
  EXPECT_EQ(env.cpu.regs[R8], 1600u);
  EXPECT_EQ(env.cpu.regs[R9], 25u);
}

TEST(CpuAlu, DivideAndDivideByZeroTrap) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 84);
  a.movi(R2, 2);
  a.divu(R3, R1, R2);
  a.movi(R4, 0);
  a.divu(R5, R1, R4);  // traps
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(env.cpu.regs[R3], 42u);
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.trap, TrapKind::kDivZero);
}

TEST(CpuMem, LoadStoreWidths) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, kDataBase);
  a.movi(R2, 0x11223344);
  a.st32(R1, 0, R2);
  a.ld32(R3, R1, 0);
  a.ld16(R4, R1, 0);
  a.ld8(R5, R1, 0);
  a.ld8(R6, R1, 3);
  a.movi(R7, 0xabcd);
  a.st16(R1, 8, R7);
  a.ld16(R8, R1, 8);
  a.movi(R9, 0x7f);
  a.st8(R1, 12, R9);
  a.ld8(R10, R1, 12);
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R3], 0x11223344u);
  EXPECT_EQ(env.cpu.regs[R4], 0x3344u);  // little endian
  EXPECT_EQ(env.cpu.regs[R5], 0x44u);
  EXPECT_EQ(env.cpu.regs[R6], 0x11u);
  EXPECT_EQ(env.cpu.regs[R8], 0xabcdu);
  EXPECT_EQ(env.cpu.regs[R10], 0x7fu);
}

TEST(CpuMem, UnalignedAccessCrossingPagesWorks) {
  CpuEnv env;
  Assembler a;
  // kDataBase..+0x1000 is one page; map the next page too and write across.
  a.movi(R1, kDataBase + 0xffe);
  a.movi(R2, 0xcafebabe);
  a.st32(R1, 0, R2);
  a.ld32(R3, R1, 0);
  a.halt();
  ASSERT_TRUE(
      env.as.map_alloc(kDataBase + 0x1000, 0x1000, kPteUser | kPteWrite)
          .ok());
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R3], 0xcafebabeu);
}

TEST(CpuMem, PushPopRoundTrip) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 111);
  a.movi(R2, 222);
  a.push(R1);
  a.push(R2);
  a.pop(R3);
  a.pop(R4);
  a.halt();
  env.load(a);
  u32 sp0 = env.cpu.regs[SP];
  env.run();
  EXPECT_EQ(env.cpu.regs[R3], 222u);
  EXPECT_EQ(env.cpu.regs[R4], 111u);
  EXPECT_EQ(env.cpu.regs[SP], sp0);
}

TEST(CpuBranch, ConditionalBranchesSignedAndUnsigned) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, static_cast<u32>(-1));  // 0xffffffff: signed -1, unsigned max
  a.movi(R2, 1);
  a.cmp(R1, R2);
  a.blt("signed_lt");  // -1 < 1 signed: taken
  a.movi(R10, 0xbad);
  a.halt();
  a.label("signed_lt");
  a.movi(R3, 1);
  a.cmp(R1, R2);
  a.bltu("unsigned_lt");  // 0xffffffff < 1 unsigned: NOT taken
  a.movi(R4, 1);
  a.cmp(R2, R2);
  a.beq("equal");
  a.movi(R10, 0xbad2);
  a.halt();
  a.label("unsigned_lt");
  a.movi(R10, 0xbad3);
  a.halt();
  a.label("equal");
  a.movi(R5, 1);
  a.cmp(R1, R2);
  a.bne("noteq");
  a.halt();
  a.label("noteq");
  a.movi(R6, 1);
  a.cmpi(R2, 5);
  a.bge("done");  // 1 >= 5 false: falls through
  a.movi(R7, 1);
  a.label("done");
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R10], 0u);
  EXPECT_EQ(env.cpu.regs[R3], 1u);
  EXPECT_EQ(env.cpu.regs[R4], 1u);
  EXPECT_EQ(env.cpu.regs[R5], 1u);
  EXPECT_EQ(env.cpu.regs[R6], 1u);
  EXPECT_EQ(env.cpu.regs[R7], 1u);
}

TEST(CpuBranch, LoopAndJump) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 0);
  a.label("loop");
  a.cmpi(R1, 10);
  a.bgeu("end");
  a.addi(R1, R1, 1);
  a.jmp("loop");
  a.label("end");
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R1], 10u);
}

TEST(CpuBranch, CallRetAndCallr) {
  CpuEnv env;
  Assembler a;
  a.call("fn");
  a.mov(R5, R0);
  a.addpc_label(R6, "fn2");
  a.callr(R6);
  a.mov(R7, R0);
  a.halt();
  a.label("fn");
  a.movi(R0, 41);
  a.ret();
  a.label("fn2");
  a.movi(R0, 43);
  a.ret();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R5], 41u);
  EXPECT_EQ(env.cpu.regs[R7], 43u);
}

TEST(CpuBranch, JrJumpsToAbsoluteAddress) {
  CpuEnv env;
  Assembler a;
  a.movi_label(R1, "target");
  a.jr(R1);
  a.movi(R2, 0xbad);
  a.halt();
  a.label("target");
  a.movi(R3, 7);
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R2], 0u);
  EXPECT_EQ(env.cpu.regs[R3], 7u);
}

TEST(CpuTrap, BadOpcode) {
  CpuEnv env;
  Assembler a;
  a.data(Bytes{0xee, 0, 0, 0, 0, 0, 0, 0});
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.trap, TrapKind::kBadOpcode);
}

TEST(CpuTrap, FetchFromUnmappedMemory) {
  CpuEnv env;
  Assembler a;
  a.halt();
  env.load(a);
  env.cpu.set_pc(0xdead000);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.trap, TrapKind::kMemFault);
  EXPECT_EQ(info.fault.kind, FaultKind::kNotMapped);
}

TEST(CpuTrap, MisalignedPc) {
  CpuEnv env;
  Assembler a;
  a.halt();
  env.load(a);
  env.cpu.set_pc(kCodeBase + 3);
  auto info = env.run();
  EXPECT_EQ(info.trap, TrapKind::kPcMisaligned);
}

TEST(CpuTrap, StoreToUnmappedAddressHasNoPartialEffect) {
  CpuEnv env;
  Assembler a;
  // Store crossing from a mapped page into unmapped space must not write
  // the mapped bytes either.
  a.movi(R1, kDataBase + 0xffe);
  a.movi(R2, 0xffffffff);
  a.st32(R1, 0, R2);
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.trap, TrapKind::kMemFault);
  auto pa = env.as.translate(kDataBase + 0xffe, AccessType::kRead, false);
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(env.mem.read8(*pa), 0u);  // untouched
}

TEST(CpuTrap, WriteProtectionEnforcedForUserMode) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 0x50000);
  a.movi(R2, 1);
  a.st8(R1, 0, R2);
  a.halt();
  ASSERT_TRUE(env.as.map_alloc(0x50000, 0x1000, kPteUser).ok());  // RO
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.fault.kind, FaultKind::kProtWrite);
}

TEST(CpuTrap, ExecProtectionEnforced) {
  CpuEnv env;
  Assembler a;
  a.halt();
  auto blob = a.assemble(0x60000);
  ASSERT_TRUE(blob.ok());
  ASSERT_TRUE(env.as.map_alloc(0x60000, 0x1000, kPteUser | kPteWrite).ok());
  ASSERT_TRUE(env.as.copy_in(0x60000, blob.value(), false).ok());
  env.cpu.set_pc(0x60000);  // mapped but not executable
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.fault.kind, FaultKind::kProtExec);
}

TEST(CpuControl, SyscallStopsAndAdvancesPc) {
  CpuEnv env;
  Assembler a;
  a.movi(R0, 99);
  a.syscall_();
  a.movi(R1, 5);
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kSyscall);
  EXPECT_EQ(env.cpu.pc(), kCodeBase + 2 * kInsnSize);
  // Resuming continues after the syscall.
  info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R1], 5u);
}

TEST(CpuControl, BudgetExhaustionReturnsAndResumes) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 0);
  a.label("loop");
  a.addi(R1, R1, 1);
  a.jmp("loop");
  env.load(a);
  auto info = env.interp.run(env.cpu, env.as, 100);
  EXPECT_EQ(info.result, StepResult::kBudget);
  EXPECT_EQ(info.executed, 100u);
  EXPECT_EQ(env.interp.instr_count(), 100u);
  info = env.interp.run(env.cpu, env.as, 50);
  EXPECT_EQ(info.executed, 50u);
  EXPECT_EQ(env.interp.instr_count(), 150u);
}

TEST(CpuControl, AddPcComputesNextPcRelative) {
  CpuEnv env;
  Assembler a;
  a.addpc_label(R1, "here");
  a.label("here");
  a.halt();
  env.load(a);
  env.run();
  EXPECT_EQ(env.cpu.regs[R1], kCodeBase + kInsnSize);
}

struct CountingHooks : ExecHooks {
  u64 insns = 0;
  u64 mem_accesses = 0;
  void on_insn_retired(const InsnEvent& ev, const AddressSpace&) override {
    ++insns;
    if (ev.mem) ++mem_accesses;
  }
};

TEST(CpuHooks, BlockAndInsnCallbacks) {
  CpuEnv env;
  CountingHooks hooks;
  env.interp.set_hooks(&hooks);
  Assembler a;
  // Block 1: movi, movi, jmp. Block 2: st32, ld32, halt.
  a.movi(R1, kDataBase);
  a.movi(R2, 3);
  a.jmp("next");
  a.label("next");
  a.st32(R1, 0, R2);
  a.ld32(R3, R1, 0);
  a.halt();
  env.load(a);
  StepInfo info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(info.executed, 6u);
  EXPECT_EQ(hooks.insns, 6u);
  EXPECT_EQ(hooks.mem_accesses, 2u);
  EXPECT_EQ(env.interp.instr_count(), 6u);
}

TEST(CpuHooks, InsnEventCarriesOperandValuesAndMemInfo) {
  CpuEnv env;
  struct Capture : ExecHooks {
    std::vector<InsnEvent> events;
    void on_insn_retired(const InsnEvent& ev, const AddressSpace&) override {
      events.push_back(ev);
    }
  } hooks;
  env.interp.set_hooks(&hooks);
  Assembler a;
  a.movi(R1, kDataBase);
  a.movi(R2, 0xaa);
  a.st8(R1, 4, R2);
  a.halt();
  env.load(a);
  env.run();
  ASSERT_EQ(hooks.events.size(), 4u);
  const InsnEvent& st = hooks.events[2];
  EXPECT_EQ(st.insn.op, Opcode::kSt8);
  EXPECT_EQ(st.rs1_val, kDataBase);
  EXPECT_EQ(st.rs2_val, 0xaau);
  ASSERT_TRUE(st.mem.has_value());
  EXPECT_EQ(st.mem->va, kDataBase + 4);
  EXPECT_TRUE(st.mem->is_write);
  EXPECT_EQ(st.mem->size, 1u);
  EXPECT_EQ(st.pc, kCodeBase + 2 * kInsnSize);
}


TEST(CpuTlb, HitsDominateTightLoops) {
  // Per-instruction mode fetch-translates every instruction (~3 per
  // iteration), and all but a few of those ~3000 translations hit. With
  // the block cache the loop block links to itself, so nearly every
  // iteration is a chained dispatch that makes no TLB probe at all.
  for (bool cache : {true, false}) {
    CpuEnv env;
    env.interp.set_block_cache_enabled(cache);
    Assembler a;
    a.movi(R1, 0);
    a.label("loop");
    a.addi(R1, R1, 1);
    a.cmpi(R1, 1000);
    a.bltu("loop");
    a.halt();
    env.load(a);
    env.run();
    if (cache) {
      EXPECT_GE(env.interp.block_cache()->stats().chained, 990u);
    } else {
      EXPECT_GT(env.interp.instr_count(), 2900u);
    }
    EXPECT_LT(env.interp.tlb_misses(), 8u) << cache;  // all on one page
  }
}

TEST(CpuTlb, ProtectionChangesBetweenQuantaAreHonoured) {
  // A page readable in quantum 1 becomes read-only before quantum 2: the
  // protect bumps the page-table epoch, so the TLB picks up the new bits.
  CpuEnv env;
  Assembler a;
  a.movi(R1, kDataBase);
  a.movi(R2, 1);
  a.st8(R1, 0, R2);   // quantum 1: write succeeds
  a.syscall_();       // quantum boundary (returns to caller)
  a.st8(R1, 1, R2);   // quantum 2: page is now read-only -> trap
  a.halt();
  env.load(a);
  auto info = env.run();
  ASSERT_EQ(info.result, StepResult::kSyscall);
  ASSERT_TRUE(env.as.protect_range(kDataBase, 0x1000, kPteUser).ok());
  info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.fault.kind, FaultKind::kProtWrite);
}

TEST(CpuTlb, DistinctAddressSpacesDoNotAlias) {
  // Two spaces map the same VA to different frames; interleaved execution
  // must read each space's own data (the TLB keys on CR3).
  CpuEnv env;
  AddressSpace other = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(other.map_alloc(kCodeBase, 0x1000,
                              kPteUser | kPteWrite | kPteExec)
                  .ok());
  ASSERT_TRUE(other.map_alloc(kDataBase, 0x1000, kPteUser | kPteWrite).ok());
  ASSERT_TRUE(
      other.map_alloc(kStackTop - 0x2000, 0x2000, kPteUser | kPteWrite).ok());

  Assembler a;
  a.movi(R1, kDataBase);
  a.ld32(R2, R1, 0);
  a.halt();
  auto blob = a.assemble(kCodeBase);
  ASSERT_TRUE(blob.ok());
  env.load(a);  // maps + copies into env.as
  ASSERT_TRUE(other.copy_in(kCodeBase, blob.value(), false).ok());

  // Different data in each space.
  Bytes d1{0x11, 0, 0, 0};
  Bytes d2{0x22, 0, 0, 0};
  ASSERT_TRUE(env.as.copy_in(kDataBase, d1, false).ok());
  ASSERT_TRUE(other.copy_in(kDataBase, d2, false).ok());

  CpuState cpu2;
  cpu2.regs[SP] = kStackTop - 16;
  cpu2.set_pc(kCodeBase);
  env.interp.run(env.cpu, env.as, 100);
  env.interp.run(cpu2, other, 100);
  EXPECT_EQ(env.cpu.regs[R2], 0x11u);
  EXPECT_EQ(cpu2.regs[R2], 0x22u);
}

TEST(CpuTlb, UnmapBetweenQuantaFaultsNotMapped) {
  // Quantum 1 caches the data-page translation; the kernel then unmaps the
  // page. The page-table write moves the epoch, so quantum 2 must walk the
  // tables again and fault instead of reading through a stale entry.
  CpuEnv env;
  Assembler a;
  a.movi(R1, kDataBase);
  a.ld32(R2, R1, 0);  // quantum 1: fills the TLB
  a.syscall_();
  a.ld32(R2, R1, 0);  // quantum 2: the page is gone
  a.halt();
  env.load(a);
  ASSERT_EQ(env.run().result, StepResult::kSyscall);
  ASSERT_TRUE(env.as.unmap_page(kDataBase, /*free_frame=*/false).ok());
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kTrap);
  EXPECT_EQ(info.trap, TrapKind::kMemFault);
  EXPECT_EQ(info.fault.kind, FaultKind::kNotMapped);
  EXPECT_EQ(info.fault.va, kDataBase);
}

TEST(CpuTlb, SharedTableRemappedThroughOtherSpaceIsSeen) {
  // Like the kernel half: `owner` creates the second-level table
  // (ensure_table) and env.as adopts its directory entry
  // (share_directory_range). A remap written through the owner lands in
  // the shared table, and the running space must see it next quantum even
  // though its own directory never changed.
  constexpr VAddr kSharedVa = 0x800000;  // own PDE, clear of code/data/stack
  CpuEnv env;
  AddressSpace owner = AddressSpace::create(env.mem, env.frames).value();
  ASSERT_TRUE(owner.ensure_table(kSharedVa).ok());
  env.as.share_directory_range(owner, kSharedVa, kSharedVa + 0x400000);
  const PAddr f1 = env.frames.alloc().value();
  const PAddr f2 = env.frames.alloc().value();
  env.mem.write32(f1, 0x11);
  env.mem.write32(f2, 0x22);
  ASSERT_TRUE(owner.map_page(kSharedVa, f1, kPteUser).ok());

  Assembler a;
  a.movi(R1, kSharedVa);
  a.ld32(R2, R1, 0);
  a.syscall_();
  a.ld32(R3, R1, 0);
  a.halt();
  env.load(a);
  ASSERT_EQ(env.run().result, StepResult::kSyscall);
  EXPECT_EQ(env.cpu.regs[R2], 0x11u);

  ASSERT_TRUE(owner.unmap_page(kSharedVa, /*free_frame=*/false).ok());
  ASSERT_TRUE(owner.map_page(kSharedVa, f2, kPteUser).ok());
  ASSERT_EQ(env.run().result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R3], 0x22u);
}

TEST(CpuTlb, RecycledCr3NeverHitsStaleEntries) {
  // Space `first` runs and caches (cr3, va) translations, then dies. The
  // next space gets the same CR3 frame (lowest free) and maps the same VAs
  // onto other frames; a TLB keyed on (cr3, vpn) alone would hand it the
  // dead space's frames.
  CpuEnv env;
  Assembler a;
  a.movi(R1, kDataBase);
  a.ld32(R2, R1, 0);
  a.halt();
  auto blob = a.assemble(kCodeBase);
  ASSERT_TRUE(blob.ok());
  auto make_space = [&](u32 value) {
    AddressSpace s = AddressSpace::create(env.mem, env.frames).value();
    EXPECT_TRUE(s.map_alloc(kCodeBase, 0x1000, kPteUser | kPteExec).ok());
    EXPECT_TRUE(s.copy_in(kCodeBase, blob.value(), false).ok());
    EXPECT_TRUE(s.map_alloc(kDataBase, 0x1000, kPteUser).ok());
    Bytes v{static_cast<u8>(value), 0, 0, 0};
    EXPECT_TRUE(s.copy_in(kDataBase, v, false).ok());
    return s;
  };

  AddressSpace first = make_space(0x11);
  CpuState c1;
  c1.set_pc(kCodeBase);
  ASSERT_EQ(env.interp.run(c1, first, 100).result, StepResult::kHalt);
  ASSERT_EQ(c1.regs[R2], 0x11u);
  const PAddr cr3 = first.cr3();
  const PAddr old_data = *first.translate(kDataBase, AccessType::kRead, true);
  // Keep the user frames allocated so the successor cannot land on them.
  first.destroy(/*free_user_frames=*/false);

  AddressSpace second = make_space(0x22);
  ASSERT_EQ(second.cr3(), cr3);
  ASSERT_NE(*second.translate(kDataBase, AccessType::kRead, true), old_data);
  CpuState c2;
  c2.set_pc(kCodeBase);
  ASSERT_EQ(env.interp.run(c2, second, 100).result, StepResult::kHalt);
  EXPECT_EQ(c2.regs[R2], 0x22u);
}

TEST(CpuTlb, YieldLoopKeepsItsTranslationAcrossQuanta) {
  // An idle guest yields every three instructions, so each scheduling round
  // is one short run() call. No page table changes between the rounds, so
  // the code page's translation must survive them: a per-run flush would
  // take one miss per round (1000 here).
  for (bool cache : {true, false}) {
    CpuEnv env;
    env.interp.set_block_cache_enabled(cache);
    Assembler a;
    a.label("loop");
    a.movi(R0, 53);  // NtYield
    a.syscall_();
    a.jmp("loop");
    env.load(a);
    for (int round = 0; round < 1000; ++round) {
      ASSERT_EQ(env.run(256).result, StepResult::kSyscall) << round;
    }
    EXPECT_LT(env.interp.tlb_misses(), 8u) << cache;
  }
}

}  // namespace
}  // namespace faros::vm
