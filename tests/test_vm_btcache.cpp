// Block-translation cache: translate/hit accounting and block footprints,
// self-modifying code (guest stores into the executing block, host writes,
// randomized write fuzzing against the uncached interpreter), CR3 recycling
// across process lifetimes, engine elision accounting (also with extra
// policy sets on one engine), the footprint guard against the uncached
// path on random blocks and random register taint, and elision grants:
// every event that must revoke one, and kDivu traps and budget cuts
// inside a granted block. Detection equivalence over the whole corpus
// with the cache on vs off is test_live_replay_oracle's block-cache
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <set>

#include "attacks/guest_common.h"
#include "attacks/programs.h"
#include "core/engine.h"
#include "os/machine.h"
#include "os/runtime.h"
#include "vm/assembler.h"
#include "vm/btcache.h"
#include "vm/cpu.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros {
namespace {

using vm::AddressSpace;
using vm::Assembler;
using vm::CpuState;
using vm::FrameAllocator;
using vm::Instruction;
using vm::Interpreter;
using vm::Opcode;
using vm::PhysMem;
using vm::StepInfo;
using vm::StepResult;
using vm::R1;
using vm::R2;
using vm::R3;
using vm::R4;
using vm::R5;
using vm::SP;

constexpr VAddr kCodeBase = 0x10000;
constexpr VAddr kStackTop = 0x80000;
constexpr VAddr kDataBase = 0x40000;

struct CpuEnv {
  PhysMem mem{1u << 20};
  FrameAllocator frames{0};
  AddressSpace as;
  Interpreter interp{mem};
  CpuState cpu;

  explicit CpuEnv(bool block_cache = true) : frames(mem.num_frames()) {
    interp.set_block_cache_enabled(block_cache);
    frames.reserve(0);
    as = AddressSpace::create(mem, frames).value();
    EXPECT_TRUE(
        as.map_alloc(kStackTop - 0x2000, 0x2000, vm::kPteUser | vm::kPteWrite)
            .ok());
    EXPECT_TRUE(
        as.map_alloc(kDataBase, 0x1000, vm::kPteUser | vm::kPteWrite).ok());
    cpu.regs[SP] = kStackTop - 16;
  }

  void load(const Assembler& a, VAddr base = kCodeBase) {
    auto blob = a.assemble(base);
    ASSERT_TRUE(blob.ok()) << blob.error().message;
    ASSERT_TRUE(as.map_alloc(base, static_cast<u32>(blob.value().size()),
                             vm::kPteUser | vm::kPteWrite | vm::kPteExec)
                    .ok());
    ASSERT_TRUE(as.copy_in(base, blob.value(), false).ok());
    cpu.set_pc(base);
  }

  StepInfo run(u64 budget = 100000) { return interp.run(cpu, as, budget); }
};

TEST(BtCacheIsa, TaintInertClassificationIsPinned) {
  // Memory ops, stack ops, syscalls, lifecycle and trapping opcodes must
  // never be elidable; pure register arithmetic and control flow must be.
  for (Opcode op : {Opcode::kLd8, Opcode::kLd16, Opcode::kLd32, Opcode::kSt8,
                    Opcode::kSt16, Opcode::kSt32, Opcode::kPush, Opcode::kPop,
                    Opcode::kSyscall, Opcode::kHalt, Opcode::kBrk,
                    Opcode::kDivu}) {
    EXPECT_FALSE(vm::taint_inert(op)) << static_cast<u32>(op);
  }
  for (Opcode op : {Opcode::kNop, Opcode::kMovi, Opcode::kMov, Opcode::kAddPc,
                    Opcode::kAdd, Opcode::kSub, Opcode::kMul, Opcode::kAnd,
                    Opcode::kAddi, Opcode::kCmp, Opcode::kCmpi, Opcode::kJmp,
                    Opcode::kJr, Opcode::kBeq, Opcode::kBne, Opcode::kCall,
                    Opcode::kRet}) {
    EXPECT_TRUE(vm::taint_inert(op)) << static_cast<u32>(op);
  }
}

TEST(BtCacheIsa, TranslateRecordsTheBlockFootprint) {
  CpuEnv env(/*block_cache=*/false);
  Assembler a;
  a.addi(R1, R1, 1);        // reads r1 before writing it
  a.mov(R2, R3);            // reads r3
  a.xor_(R4, R4, R4);       // zero idiom: reads nothing
  a.add(R5, R4, vm::R6);    // r4 already written: reads only r6
  a.movi(vm::R7, 3);
  a.divu(R5, R5, vm::R7);   // r5 and r7 written earlier: no new reads
  a.cmp(vm::R8, vm::R9);    // compares read no provenance
  a.movi(vm::R0, 7);
  a.syscall_();             // writes r0
  a.movi(R1, 0);            // next block
  a.ld32(R2, R3);
  a.call("next");
  a.label("next");
  a.halt();
  env.load(a);
  auto pa = env.as.translate(kCodeBase, vm::AccessType::kExec, true);
  ASSERT_TRUE(pa.has_value());
  auto bit = [](u8 r) { return static_cast<u16>(1u << r); };

  vm::BlockCache btc(env.mem);
  const vm::TranslatedBlock* b = btc.translate(env.as.cr3(), kCodeBase, *pa);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->insns.size(), 9u);
  EXPECT_EQ(b->reads, bit(1) | bit(3) | bit(6));
  EXPECT_EQ(b->writes, bit(0) | bit(1) | bit(2) | bit(4) | bit(5) | bit(7));
  // A kDivu (its trap stops the fast body exactly) and a final kSyscall
  // keep the block offered.
  EXPECT_TRUE(b->elidable_ops);

  const VAddr second = kCodeBase + 9 * vm::kInsnSize;
  const vm::TranslatedBlock* c =
      btc.translate(env.as.cr3(), second, *pa + 9 * vm::kInsnSize);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->insns.size(), 3u);
  EXPECT_EQ(c->reads, bit(3));  // the ld32 address register
  EXPECT_EQ(c->writes, bit(1) | bit(2) | bit(vm::LR));
  EXPECT_FALSE(c->elidable_ops);
}

TEST(BtCacheIsa, SyscallTailBlocksAreOffered) {
  CpuEnv env(/*block_cache=*/false);
  Assembler a;
  a.movi(vm::R0, 7);
  a.mov(R1, R2);
  a.syscall_();
  env.load(a);
  auto pa = env.as.translate(kCodeBase, vm::AccessType::kExec, true);
  ASSERT_TRUE(pa.has_value());
  vm::BlockCache btc(env.mem);
  const vm::TranslatedBlock* b = btc.translate(env.as.cr3(), kCodeBase, *pa);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(b->elidable_ops);
  EXPECT_EQ(b->reads, 1u << R2);
  EXPECT_EQ(b->writes, (1u << vm::R0) | (1u << R1));
}

/// Translates the block at `va` of `env`'s code into `btc`.
const vm::TranslatedBlock* translate_at(CpuEnv& env, vm::BlockCache& btc,
                                        VAddr va) {
  auto pa = env.as.translate(va, vm::AccessType::kExec, true);
  EXPECT_TRUE(pa.has_value());
  return pa ? btc.translate(env.as.cr3(), va, *pa) : nullptr;
}

TEST(BtCacheIsa, ElidableBlockChainsItsSamePageJumpTarget) {
  // The NtYield loop's shape: the jmp block continues at its target, one
  // 3-instruction superblock per iteration.
  CpuEnv env(/*block_cache=*/false);
  Assembler a;
  a.label("loop");
  a.movi(vm::R0, 7);
  a.syscall_();
  a.jmp("loop");
  env.load(a);
  vm::BlockCache btc(env.mem);
  const VAddr jmp_va = kCodeBase + 2 * vm::kInsnSize;
  const vm::TranslatedBlock* b = translate_at(env, btc, jmp_va);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(b->insns.size(), 3u);
  EXPECT_EQ(b->split, 1u);
  EXPECT_TRUE(b->elidable_ops);
  EXPECT_EQ(b->insns[0].op, Opcode::kJmp);
  EXPECT_EQ(b->insns[2].op, Opcode::kSyscall);
  EXPECT_EQ(b->pa_of(0), b->start_pa);
  EXPECT_EQ(b->split_pa, b->start_pa - 2 * vm::kInsnSize);
  EXPECT_EQ(b->pa_of(2), b->split_pa + vm::kInsnSize);
  EXPECT_EQ(b->writes, 1u << vm::R0);

  // Executed, the superblock retires exactly what the plain blocks do.
  for (bool cache : {true, false}) {
    CpuEnv run(cache);
    run.load(a);
    run.cpu.set_pc(jmp_va);
    StepInfo info = run.run();
    EXPECT_EQ(info.result, StepResult::kSyscall) << cache;
    EXPECT_EQ(info.executed, 3u) << cache;
    EXPECT_EQ(info.pc, kCodeBase + vm::kInsnSize) << cache;
    EXPECT_EQ(run.cpu.pc(), jmp_va) << cache;
    EXPECT_EQ(run.interp.instr_count(), 3u) << cache;
    if (cache) {
      EXPECT_EQ(run.interp.block_cache()->stats().hits, 0u);
    }
  }
}

TEST(BtCacheIsa, OffPageMisalignedAndNonElidableTargetsAreNotChained) {
  // Off-page: the jmp's (elidable) target sits on the next virtual page.
  {
    CpuEnv env(/*block_cache=*/false);
    Assembler a;
    a.movi(R1, 1);
    a.jmp("far");
    for (u32 i = 0; i < vm::kPageSize / vm::kInsnSize; ++i) a.nop();
    a.label("far");
    a.movi(R2, 2);
    a.jmp("far");
    env.load(a);
    vm::BlockCache btc(env.mem);
    const vm::TranslatedBlock* b = translate_at(env, btc, kCodeBase);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->insns.size(), 2u);
    EXPECT_EQ(b->split, 2u);
  }
  // Misaligned: a raw jmp whose displacement is not a multiple of 8.
  {
    CpuEnv env(/*block_cache=*/false);
    Assembler a;
    a.movi(R1, 1);
    Bytes raw;
    vm::encode(Instruction{Opcode::kJmp, 0, 0, 0, 4}, raw);
    a.data(raw);
    a.movi(R2, 2);
    a.halt();
    env.load(a);
    vm::BlockCache btc(env.mem);
    const vm::TranslatedBlock* b = translate_at(env, btc, kCodeBase);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->insns.size(), 2u);
    EXPECT_EQ(b->split, 2u);
    EXPECT_TRUE(b->elidable_ops);
    // Executed, the jump still traps at its misaligned target.
    CpuEnv run;
    run.load(a);
    StepInfo info = run.run();
    EXPECT_EQ(info.result, StepResult::kTrap);
    EXPECT_EQ(info.trap, vm::TrapKind::kPcMisaligned);
  }
  // Non-elidable tail: the head stays an elidable block of its own, and a
  // non-elidable head is never extended either.
  {
    CpuEnv env(/*block_cache=*/false);
    Assembler a;
    a.movi(R1, kDataBase);
    a.jmp("load");
    a.label("load");
    a.ld32(R2, R1);
    a.jmp("done");
    a.label("done");
    a.halt();
    env.load(a);
    vm::BlockCache btc(env.mem);
    const vm::TranslatedBlock* head = translate_at(env, btc, kCodeBase);
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(head->insns.size(), 2u);
    EXPECT_EQ(head->split, 2u);
    EXPECT_TRUE(head->elidable_ops);
    const vm::TranslatedBlock* load =
        translate_at(env, btc, kCodeBase + 2 * vm::kInsnSize);
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(load->insns.size(), 2u);
    EXPECT_EQ(load->split, 2u);
    EXPECT_FALSE(load->elidable_ops);
  }
}

TEST(BtCache, LoopTranslatesOnceAndHitsThereafter) {
  CpuEnv env;
  Assembler a;
  a.movi(R1, 0);
  a.movi(R2, 500);
  a.label("loop");
  a.addi(R1, R1, 1);
  a.cmp(R1, R2);
  a.bne("loop");
  a.halt();
  env.load(a);
  auto info = env.run();
  EXPECT_EQ(info.result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R1], 500u);

  const vm::BlockCache* btc = env.interp.block_cache();
  ASSERT_NE(btc, nullptr);
  // Two static blocks (entry, loop body); ~500 loop iterations must be
  // cache hits, not retranslations.
  EXPECT_LE(btc->stats().translated, 4u);
  EXPECT_GE(btc->stats().hits, 490u);
  EXPECT_EQ(btc->stats().evict_smc, 0u);
}

TEST(BtCache, CacheOffDisablesTheCacheEntirely) {
  CpuEnv env(/*block_cache=*/false);
  Assembler a;
  a.movi(R1, 7);
  a.halt();
  env.load(a);
  EXPECT_EQ(env.run().result, StepResult::kHalt);
  EXPECT_EQ(env.interp.block_cache(), nullptr);
}

// A store that patches the immediate word of a *later* instruction in the
// same basic block. Per-instruction fetch semantics require the patched
// value to execute; the cached body must notice the eviction mid-block.
void assemble_imm_patcher(Assembler& a) {
  a.addpc_label(R1, "target");
  a.movi(R2, 222);
  a.st32(R1, 4, R2);  // imm32 lives at insn offset +4
  a.label("target");
  a.movi(R4, 111);
  a.halt();
}

TEST(BtCache, GuestStorePatchesLaterInsnOfOwnBlock) {
  for (bool cache : {true, false}) {
    CpuEnv env(cache);
    Assembler a;
    assemble_imm_patcher(a);
    env.load(a);
    auto info = env.run();
    EXPECT_EQ(info.result, StepResult::kHalt) << cache;
    EXPECT_EQ(env.cpu.regs[R4], 222u) << cache;
    if (cache) {
      EXPECT_GE(env.interp.block_cache()->stats().evict_smc, 1u);
    }
  }
}

TEST(BtCache, GuestStoreRewritesLaterInsnIntoHalt) {
  // Patching word0 to 0x00000001 turns the target movi into halt (op=0x01,
  // rd=rs1=rs2=0); the following movi must never execute.
  for (bool cache : {true, false}) {
    CpuEnv env(cache);
    Assembler a;
    a.addpc_label(R1, "target");
    a.movi(R2, 1);
    a.st32(R1, 0, R2);
    a.label("target");
    a.movi(R4, 111);  // becomes halt
    a.movi(R5, 55);   // dead after the patch
    a.halt();
    env.load(a);
    auto info = env.run();
    EXPECT_EQ(info.result, StepResult::kHalt) << cache;
    EXPECT_EQ(env.cpu.regs[R4], 0u) << cache;
    EXPECT_EQ(env.cpu.regs[R5], 0u) << cache;
  }
}

TEST(BtCache, HostWriteEvictsTranslatedFrameAndRetranslates) {
  CpuEnv env;
  Assembler a;
  a.movi(R3, 5);
  a.halt();
  env.load(a);
  EXPECT_EQ(env.run().result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R3], 5u);
  const u64 translated_before = env.interp.block_cache()->stats().translated;

  // Patch the immediate through the address space (lands via PhysMem::write,
  // which must fire the code-write observer before the bytes change).
  const u32 imm = 9;
  std::vector<u8> word(4);
  std::memcpy(word.data(), &imm, 4);
  ASSERT_TRUE(env.as.copy_in(kCodeBase + 4, word, false).ok());

  env.cpu.set_pc(kCodeBase);
  EXPECT_EQ(env.run().result, StepResult::kHalt);
  EXPECT_EQ(env.cpu.regs[R3], 9u);
  const auto& st = env.interp.block_cache()->stats();
  EXPECT_GE(st.evict_smc, 1u);
  EXPECT_GT(st.translated, translated_before);
}

TEST(PhysMemWatch, ByteZeroWatchIsDistinctFromUnwatchedSentinel) {
  // Regression: the packed watch word used to encode a [0, hi) range with
  // lo == 0 as plain `hi`, so watching the very start of a frame could
  // collide with the 0 "unwatched" sentinel and silently drop the SMC
  // watch. The +1 hi bias keeps every real range non-zero.
  PhysMem mem{1u << 16};
  std::vector<std::pair<PAddr, u32>> fires;
  mem.set_code_write_observer(
      [&](PAddr pa, u32 len) { fires.emplace_back(pa, len); });

  mem.watch_frame(0, 0, 1);  // watch exactly byte 0
  EXPECT_TRUE(mem.frame_watched(0));
  mem.write8(0, 0xcc);
  ASSERT_EQ(fires.size(), 1u);
  EXPECT_EQ(fires[0].first, 0u);
  EXPECT_EQ(fires[0].second, 1u);

  // Outside the watched range: no notification.
  mem.write8(1, 0xcc);
  EXPECT_EQ(fires.size(), 1u);

  // Widening to the union keeps byte 0 covered and picks up the new tail.
  mem.watch_frame(0, 8, 16);
  mem.write8(0, 0xdd);
  EXPECT_EQ(fires.size(), 2u);
  mem.write8(15, 0xdd);
  EXPECT_EQ(fires.size(), 3u);
  mem.write8(16, 0xdd);  // hi is exclusive
  EXPECT_EQ(fires.size(), 3u);

  mem.unwatch_frame(0);
  EXPECT_FALSE(mem.frame_watched(0));
  mem.write8(0, 0xee);
  EXPECT_EQ(fires.size(), 3u);
}

TEST(BtCache, GuestStorePatchesByteZeroOfOwnTranslatedBlock) {
  // kCodeBase is page-aligned, so the block's first instruction starts at
  // byte 0 of its frame — exactly the offset the old packed-watch encoding
  // could lose. The program overwrites its own word 0 with halt (op 0x01)
  // and jumps back; if the stale translation survived, re-entry would
  // re-run the original movi and spin until the budget instead of halting.
  for (bool cache : {true, false}) {
    CpuEnv env(cache);
    Assembler a;
    a.label("start");
    a.movi(R4, 999);  // byte 0 of the frame — rewritten into halt below
    a.addpc_label(R1, "start");
    a.movi(R2, 1);       // halt encoding, word 0
    a.st32(R1, 0, R2);   // self-patch byte 0 of the executing block
    a.movi(R4, 111);
    a.jmp("start");
    env.load(a);
    auto info = env.run();
    EXPECT_EQ(info.result, StepResult::kHalt) << cache;
    EXPECT_EQ(env.cpu.regs[R4], 111u) << cache;
    if (cache) {
      EXPECT_GE(env.interp.block_cache()->stats().evict_smc, 1u);
    }
  }
}

TEST(BtCache, RandomizedCodeWriteFuzzerMatchesUncachedReference) {
  // Two interpreters run the same straight-line program under an identical
  // interleaving of budget slices and random code patches; every
  // architectural outcome must match the uncached reference exactly.
  constexpr u32 kInsns = 64;
  Assembler a;
  for (u32 i = 0; i < kInsns; ++i) {
    a.movi(static_cast<vm::Reg>(1 + (i % 8)), i);
  }
  a.halt();

  CpuEnv cached(true), plain(false);
  cached.load(a);
  plain.load(a);

  std::mt19937 rng(0xfa405u);
  u64 executed = 0;
  while (executed < kInsns) {
    const u64 slice = 1 + rng() % 7;
    auto ic = cached.run(slice);
    auto ip = plain.run(slice);
    ASSERT_EQ(ic.result, ip.result);
    ASSERT_EQ(ic.executed, ip.executed);
    executed += ic.executed;
    if (ic.result == StepResult::kHalt) break;

    // Patch the immediate of a random not-yet-executed instruction in both
    // machines (8-byte slots; +4 is the imm32 word).
    if (executed + 1 < kInsns) {
      const u64 idx = executed + 1 + rng() % (kInsns - executed - 1);
      const u32 imm = rng();
      std::vector<u8> word(4);
      std::memcpy(word.data(), &imm, 4);
      ASSERT_TRUE(
          cached.as.copy_in(kCodeBase + idx * vm::kInsnSize + 4, word, false)
              .ok());
      ASSERT_TRUE(
          plain.as.copy_in(kCodeBase + idx * vm::kInsnSize + 4, word, false)
              .ok());
    }
    for (u32 r = 0; r < vm::kNumRegs; ++r) {
      ASSERT_EQ(cached.cpu.regs[r], plain.cpu.regs[r]) << "reg " << r;
    }
  }
  for (u32 r = 0; r < vm::kNumRegs; ++r) {
    EXPECT_EQ(cached.cpu.regs[r], plain.cpu.regs[r]) << "reg " << r;
  }
  EXPECT_EQ(cached.interp.instr_count(), plain.interp.instr_count());
  EXPECT_GE(cached.interp.block_cache()->stats().evict_smc, 1u);
}

TEST(BtCache, BudgetClippedMidBlockResumesCorrectly) {
  for (bool cache : {true, false}) {
    CpuEnv env(cache);
    Assembler a;
    a.movi(R1, 1);
    a.movi(R2, 2);
    a.movi(R3, 3);
    a.movi(R4, 4);
    a.movi(R5, 5);
    a.halt();
    env.load(a);
    auto first = env.run(/*budget=*/2);
    EXPECT_EQ(first.result, StepResult::kBudget) << cache;
    EXPECT_EQ(first.executed, 2u) << cache;
    EXPECT_EQ(env.cpu.regs[R2], 2u) << cache;
    EXPECT_EQ(env.cpu.regs[R3], 0u) << cache;
    auto rest = env.run();
    EXPECT_EQ(rest.result, StepResult::kHalt) << cache;
    EXPECT_EQ(env.cpu.regs[R5], 5u) << cache;
  }
}

TEST(BtCacheOs, ProcessExitEvictsItsBlocksAndCr3RecyclesSafely) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  auto spawn_exiter = [&](const std::string& name, u32 code) {
    os::ImageBuilder ib(name, os::kUserImageBase);
    ib.asm_().label("_start");
    ib.asm_().movi(R1, 0);
    ib.asm_().addi(R1, R1, 1);
    attacks::emit_exit(ib.asm_(), code);
    auto img = ib.build();
    EXPECT_TRUE(img.ok());
    std::string path = "C:/test/" + name;
    m.kernel().vfs().create(path, img.value().serialize());
    auto pid = m.kernel().spawn(path);
    EXPECT_TRUE(pid.ok());
    return pid.ok() ? pid.value() : 0;
  };

  // Same image base both times: the second spawn reuses the recycled frames
  // (and possibly the CR3) of the first — stale translations would execute
  // the wrong program.
  os::Pid p1 = spawn_exiter("first.exe", 7);
  m.run(200000);
  ASSERT_EQ(m.kernel().find(p1)->exit_code, 7u);

  os::Pid p2 = spawn_exiter("second.exe", 9);
  m.run(200000);
  ASSERT_EQ(m.kernel().find(p2)->exit_code, 9u);

  const vm::BlockCache* btc = m.kernel().interp().block_cache();
  ASSERT_NE(btc, nullptr);
  EXPECT_GE(btc->stats().evict_cr3, 1u);
  EXPECT_GE(btc->stats().translated, 2u);
}

// --- engine elision accounting -------------------------------------------

u32 spawn_benign_loop(os::Machine& m) {
  os::ImageBuilder ib("benign.exe", os::kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi(R1, 0);
  a.movi(R2, 2000);
  a.label("loop");
  a.addi(R1, R1, 1);
  a.cmp(R1, R2);
  a.bne("loop");
  attacks::emit_exit(a, 0);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  m.kernel().vfs().create("C:/benign.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/benign.exe");
  EXPECT_TRUE(pid.ok());
  return pid.ok() ? pid.value() : 0;
}

obs::MetricSnapshot run_benign_with_engine(bool block_cache) {
  os::Machine m;
  m.kernel().interp().set_block_cache_enabled(block_cache);
  core::Options opts;
  core::FarosEngine engine(m.kernel(), opts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  EXPECT_TRUE(m.boot().ok());
  spawn_benign_loop(m);
  m.run(500000);
  return engine.metrics_snapshot();
}

TEST(BtCacheEngine, ElisionKeepsEngineCountersExact) {
  obs::MetricSnapshot on = run_benign_with_engine(true);
  obs::MetricSnapshot off = run_benign_with_engine(false);

  // The elided fast path must account for every skipped instruction: the
  // deterministic counters (and so the verdict stream) are identical.
  EXPECT_EQ(on[obs::Ctr::kInsnsRetired], off[obs::Ctr::kInsnsRetired]);
  EXPECT_EQ(on[obs::Ctr::kTaintedFetches], off[obs::Ctr::kTaintedFetches]);
  EXPECT_EQ(on[obs::Ctr::kPolicyEvals], off[obs::Ctr::kPolicyEvals]);

  // The loop body is pure register arithmetic: elision must actually fire
  // with the cache on and never without it.
  EXPECT_GT(on[obs::Ctr::kBtElidedBlocks], 0u);
  EXPECT_EQ(off[obs::Ctr::kBtElidedBlocks], 0u);
}

/// A program whose middle block holds a constant-divisor kDivu but is
/// entered with a tainted register: r1 is loaded from the file-tagged
/// image, the kDivu moves that taint into r2, and the push stores it.
os::Image build_tainted_divu() {
  os::ImageBuilder ib("taintdiv.exe", os::kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi_label(R1, "data");
  a.ld32(R1, R1);
  a.jmp("body");
  a.label("body");
  a.movi(vm::R7, 9);
  a.divu(R2, R1, vm::R7);
  a.jmp("tail");
  a.label("tail");
  a.push(R2);
  attacks::emit_exit(a, 0);
  a.label("data");
  a.data_u32(0x12345678);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  return img.value();
}

/// Returns the engine's counters and tainted byte count after running
/// build_tainted_divu().
std::pair<obs::MetricSnapshot, u64> run_tainted_divu(bool block_cache) {
  os::Image img = build_tainted_divu();
  os::Machine m;
  m.kernel().interp().set_block_cache_enabled(block_cache);
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  EXPECT_TRUE(m.boot().ok());
  m.kernel().vfs().create("C:/taintdiv.exe", img.serialize());
  EXPECT_TRUE(m.kernel().spawn("C:/taintdiv.exe").ok());
  m.run(200000);
  return {engine.metrics_snapshot(), engine.shadow().tainted_bytes()};
}

TEST(BtCacheEngine, KDivuBlockWithTaintedRegistersRunsInstrumented) {
  // An offered block is only eligible; try_elide_block's footprint guard
  // still decides. The kDivu block reads the tainted r1, so it must run
  // instrumented and move the taint exactly as the uncached path does.
  auto [plain, plain_bytes] = run_tainted_divu(false);
  auto [cached, cached_bytes] = run_tainted_divu(true);
  EXPECT_GE(cached[obs::Ctr::kBtDeclineTaintedRead], 1u);
  EXPECT_GE(plain[obs::Ctr::kTaintedStores], 1u);
  EXPECT_EQ(cached[obs::Ctr::kTaintedStores], plain[obs::Ctr::kTaintedStores]);
  EXPECT_EQ(cached_bytes, plain_bytes);
}

// --- extra policy sets on one engine --------------------------------------

core::RuleSpec rule(const char* id, core::Trigger t,
                    std::vector<core::Predicate> when) {
  core::RuleSpec r;
  r.id = id;
  r.trigger = t;
  r.when = std::move(when);
  return r;
}

/// A clean-register loop whose body divides by a constant (kDivu is not
/// taint-inert, but its blocks are offered for elision).
os::Image build_divu_loop() {
  os::ImageBuilder ib("divloop.exe", os::kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi(R1, 0);
  a.movi(R2, 2000);
  a.label("loop");
  a.addi(R1, R1, 1);
  a.movi(vm::R7, 9);
  a.divu(R3, R1, vm::R7);
  a.cmp(R1, R2);
  a.bne("loop");
  attacks::emit_exit(a, 0);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  return img.value();
}

/// Fires at every instruction fetched from a file-tagged (mapped) image.
core::RuleSpec file_fetch_rule() {
  return rule("file-fetch", core::Trigger::kTaintedFetch,
              {core::Predicate{core::Predicate::Kind::kHasType,
                               core::Subject::kFetch, core::TagType::kFile,
                               0}});
}

/// What each rule set of one engine produced, and the engine's counters.
struct SetsRun {
  std::vector<std::vector<core::Finding>> findings;      // per set
  std::vector<std::vector<core::RuleStats>> rule_stats;  // per set
  obs::MetricSnapshot metrics;
};

/// Runs `img` with the block cache under `primary` plus each of `extra` as
/// further sets.
SetsRun run_sets(const os::Image& img, std::vector<core::RuleSpec> primary,
                 const std::vector<std::vector<core::RuleSpec>>& extra,
                 u32 max_findings = 256) {
  os::Machine m;
  core::Options opts;
  opts.rules = std::move(primary);
  opts.max_findings = max_findings;
  core::FarosEngine engine(m.kernel(), opts);
  for (const auto& rules : extra) engine.add_rule_set(rules);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  EXPECT_TRUE(m.boot().ok());
  m.kernel().vfs().create("C:/" + img.name, img.serialize());
  EXPECT_TRUE(m.kernel().spawn("C:/" + img.name).ok());
  m.run(500000);
  SetsRun out;
  for (u32 set = 0; set < engine.rule_set_count(); ++set) {
    out.findings.push_back(engine.findings(set));
    const core::RuleEngine& re = engine.rule_engine(set);
    out.rule_stats.emplace_back();
    for (u32 i = 0; i < re.rule_count(); ++i) {
      out.rule_stats.back().push_back(re.rule_stats(i));
    }
  }
  out.metrics = engine.metrics_snapshot();
  return out;
}

void expect_same_findings(const std::vector<core::Finding>& a,
                          const std::vector<core::Finding>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].policy, b[i].policy) << i;
    EXPECT_EQ(a[i].instr_index, b[i].instr_index) << i;
    EXPECT_EQ(a[i].insn_va, b[i].insn_va) << i;
    EXPECT_EQ(a[i].target_va, b[i].target_va) << i;
    EXPECT_EQ(a[i].fetch_prov, b[i].fetch_prov) << i;
    EXPECT_EQ(a[i].target_prov, b[i].target_prov) << i;
  }
}

void expect_same_rule_stats(const std::vector<core::RuleStats>& a,
                            const std::vector<core::RuleStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].evals, b[i].evals) << i;
    EXPECT_EQ(a[i].hits, b[i].hits) << i;
  }
}

TEST(BtCacheEngine, ExtraSetFetchRuleDisablesElisionForTheEngine) {
  // The primary binds no fetch rule, so on its own it elides the kDivu
  // loop running from the file-tagged image. An extra set with
  // a tainted-fetch rule needs every fetch: the elision guard must look at
  // all sets, so the extra set sees exactly what it sees as a solo primary.
  const os::Image img = build_divu_loop();
  const std::vector<core::RuleSpec> builtins =
      core::builtin_rules(true, true, false);
  SetsRun plain = run_sets(img, builtins, {});
  ASSERT_GT(plain.metrics[obs::Ctr::kBtElidedInsns], 1000u);

  SetsRun fan = run_sets(img, builtins, {{file_fetch_rule()}});
  SetsRun solo = run_sets(img, {file_fetch_rule()}, {});
  ASSERT_EQ(fan.findings.size(), 2u);
  ASSERT_FALSE(solo.findings[0].empty());
  ASSERT_GT(solo.rule_stats[0].at(0).evals, 0u);
  expect_same_findings(fan.findings[1], solo.findings[0]);
  expect_same_rule_stats(fan.rule_stats[1], solo.rule_stats[0]);
  EXPECT_EQ(fan.metrics[obs::Ctr::kBtElidedBlocks], 0u);
}

TEST(BtCacheEngine, ExtraSetAtMaxFindingsLeavesPrimaryUntouched) {
  // Each set has its own max_findings cap. The extra set flags every
  // fetched instruction and fills its cap before the primary's one
  // finding (the tainted load of the image's data word) comes up.
  const os::Image img = build_tainted_divu();
  const std::vector<core::RuleSpec> primary = {
      rule("file-load", core::Trigger::kTaintedLoad,
           {core::Predicate{core::Predicate::Kind::kHasType,
                            core::Subject::kTarget, core::TagType::kFile,
                            0}})};
  constexpr u32 kCap = 2;
  SetsRun solo = run_sets(img, primary, {}, kCap);
  ASSERT_EQ(solo.findings[0].size(), 1u);

  SetsRun fan = run_sets(
      img, primary, {{rule("any-fetch", core::Trigger::kTaintedFetch, {})}},
      kCap);
  ASSERT_EQ(fan.findings.size(), 2u);
  EXPECT_EQ(fan.findings[1].size(), kCap);
  EXPECT_GT(fan.rule_stats[1].at(0).hits, kCap);
  expect_same_findings(fan.findings[0], solo.findings[0]);
  expect_same_rule_stats(fan.rule_stats[0], solo.rule_stats[0]);
}

// --- footprint guard: seeded differential against the uncached path ------

/// OSI stand-in for an engine driven without a kernel: one process.
struct OneProcessOsi : os::OsiQuery {
  osi::ProcessInfo proc;
  std::optional<osi::ProcessInfo> process_by_cr3(PAddr cr3) const override {
    if (cr3 == proc.cr3) return proc;
    return std::nullopt;
  }
  std::vector<osi::ProcessInfo> process_list() const override {
    return {proc};
  }
};

constexpr u32 kTaintBufBytes = 64;

/// A random straight-line program: an entry block that loads random bytes
/// of a randomly tainted buffer into random registers, then blocks of
/// elidable opcodes, each ending in a kSyscall, jmp, call or conditional
/// branch to the next, then halt. About one body slot in five is a kDivu,
/// dividing by whatever a random register holds or by a constant set right
/// before it — zero one time in three, so blocks trap mid-way.
struct FootprintProgram {
  Assembler code;
  u8 buf_flow[kTaintBufBytes] = {};  // per byte: 0 clean, else a flow
  u32 code_taint = 0;  // 0 clean code, 1 all of it, 2 its first half
};

FootprintProgram random_footprint_program(u32 seed) {
  std::mt19937 rng(seed);
  auto pick = [&](u32 n) { return static_cast<u32>(rng() % n); };
  auto reg = [&]() { return static_cast<vm::Reg>(pick(vm::LR + 1)); };
  FootprintProgram p;
  for (u8& f : p.buf_flow) f = static_cast<u8>(pick(4));
  p.code_taint = pick(3);
  Assembler& a = p.code;

  // Entry: r12 is the buffer base, so it is loaded (if at all) last.
  a.movi(vm::R12, kDataBase);
  std::vector<u8> order;
  for (u8 r = 0; r <= vm::LR; ++r) {
    if (r != vm::R12) order.push_back(r);
  }
  order.push_back(vm::R12);
  for (u8 r : order) {
    const vm::Reg rd = static_cast<vm::Reg>(r);
    switch (pick(5)) {
      case 0: a.movi(rd, rng()); break;
      case 1: a.ld8(rd, vm::R12, static_cast<i32>(pick(kTaintBufBytes))); break;
      case 2:
        a.ld16(rd, vm::R12, static_cast<i32>(pick(kTaintBufBytes - 1)));
        break;
      case 3:
        a.ld32(rd, vm::R12, static_cast<i32>(pick(kTaintBufBytes - 3)));
        break;
      default: break;  // keep what the previous pass left there
    }
  }
  a.jmp("b0");

  const u32 blocks = 3 + pick(6);
  for (u32 i = 0; i < blocks; ++i) {
    const std::string name = "b" + std::to_string(i);
    const std::string next =
        i + 1 < blocks ? "b" + std::to_string(i + 1) : "end";
    a.label(name);
    const u32 body = 1 + pick(6);
    for (u32 k = 0; k < body; ++k) {
      const vm::Reg rd = reg();
      const vm::Reg r1 = reg();
      const vm::Reg r2 = reg();
      if (pick(5) == 0) {
        if (pick(2)) a.movi(r2, pick(3) == 0 ? 0 : 1 + pick(100));
        a.divu(rd, r1, r2);
        continue;
      }
      switch (pick(14)) {
        case 0: a.movi(rd, rng()); break;
        case 1: a.mov(rd, r1); break;
        case 2: a.addpc_label(rd, name); break;
        case 3: a.add(rd, r1, r2); break;
        case 4: a.sub(rd, r1, pick(2) ? r1 : r2); break;  // zero idiom too
        case 5: a.xor_(rd, r1, pick(2) ? r1 : r2); break;
        case 6: a.mul(rd, r1, r2); break;
        case 7: a.and_(rd, r1, r2); break;
        case 8: a.shr(rd, r1, r2); break;
        case 9: a.addi(rd, r1, static_cast<i32>(pick(50))); break;
        case 10: a.xori(rd, r1, rng()); break;
        case 11: a.shli(rd, r1, pick(32)); break;
        case 12: a.cmp(r1, r2); break;
        default: a.nop(); break;
      }
    }
    switch (pick(4)) {
      case 0: a.syscall_(); break;  // the harness resumes at the next insn
      case 1: a.jmp(next); break;
      case 2: a.call(next); break;
      default:
        a.cmp(reg(), reg());
        a.beq(next);
        break;
    }
  }
  a.label("end");
  a.halt();
  return p;
}

/// Forwards every hook to the engine, counting the instructions that reach
/// it one by one and the approved bodies that retired less than the whole
/// block. `short_body` says whether the last hook call of a run() reported
/// such a body: when run() then returns a trap, a kDivu cut that body
/// short (a budget cut returns kBudget). With `grants` (set before
/// attaching), the engine's elision grants are forwarded too, so granted
/// blocks bypass every hook; `granted_reports` counts the on_block_elided
/// calls no guard call preceded: kDivu traps inside granted bodies.
struct CountingHooks : vm::ExecHooks {
  vm::ExecHooks* inner = nullptr;
  bool grants = true;
  u64 instrumented = 0;
  u64 short_bodies = 0;
  u64 granted_reports = 0;
  bool short_body = false;
  bool asked = false;

  void on_insn_retired(const vm::InsnEvent& ev,
                       const AddressSpace& as) override {
    short_body = false;
    ++instrumented;
    inner->on_insn_retired(ev, as);
  }
  bool try_elide_block(const vm::TranslatedBlock& b) override {
    short_body = false;
    asked = inner->try_elide_block(b);
    return asked;
  }
  void on_block_elided(vm::TranslatedBlock& b, u32 retired) override {
    short_body = retired < b.insns.size();
    if (short_body) ++short_bodies;
    if (!asked) ++granted_reports;
    asked = false;
    inner->on_block_elided(b, retired);
  }
  vm::ElisionGrants elision_grants() override {
    return grants ? inner->elision_grants() : vm::ElisionGrants{};
  }
};

/// The analysis state both runs must agree on: register and memory
/// provenance (every tainted shadow byte: the buffer, and the code page
/// with its process-tag writebacks), store size, engine stats, findings
/// and per-rule tallies. Provenance is compared by content: the two runs
/// intern the same lists but need not intern them in the same order.
struct FootprintOutcome {
  std::vector<std::vector<core::ProvTag>> regs;  // 16 registers x 4 bytes
  std::vector<std::pair<PAddr, std::vector<core::ProvTag>>> mem;
  size_t store_size = 0;
  core::EngineStats stats;
  std::vector<std::string> findings;
  std::vector<core::RuleStats> rule_stats;
  obs::MetricSnapshot metrics;
  /// The counters when the late rule set was added (the end when none was).
  obs::MetricSnapshot metrics_unbound;
  u64 instrumented = 0;    // instructions the engine saw one by one
  u64 trapped_bodies = 0;  // approved bodies stopped by a kDivu trap
  u64 traps = 0;           // divide-by-zero traps, resumed past
};

std::string tags_str(const core::ProvStore& store, core::ProvListId id) {
  std::string out;
  for (const core::ProvTag& t : store.get(id)) {
    out += std::to_string(t.key()) + ",";
  }
  return out;
}

FootprintOutcome run_footprint(const FootprintProgram& p, u32 seed,
                               bool block_cache, bool bind_rules,
                               bool grants = true) {
  CpuEnv env(block_cache);
  env.load(p.code);
  OneProcessOsi osi;
  osi.proc = {1, 0, env.as.cr3(), "fuzz.exe"};

  core::Options opts;
  opts.rules = core::builtin_rules(true, true, false);
  if (bind_rules) {
    opts.rules.push_back(rule("sys", core::Trigger::kSyscallArg, {}));
    opts.rules.push_back(rule("fetch", core::Trigger::kTaintedFetch, {}));
  }
  core::FarosEngine engine(osi, opts);
  CountingHooks hooks;
  hooks.inner = &engine;
  hooks.grants = grants;
  env.interp.set_hooks(&hooks);

  const FlowTuple flows[3] = {{0x0a000001, 4444, 0x0a000002, 5000},
                              {0x0a000003, 4445, 0x0a000002, 5001},
                              {0x0a000004, 4446, 0x0a000002, 5002}};
  auto blob = p.code.assemble(kCodeBase);
  EXPECT_TRUE(blob.ok());
  const u32 code_len = static_cast<u32>(blob.value().size());
  for (u32 i = 0; i < kTaintBufBytes; ++i) {
    if (p.buf_flow[i] == 0) continue;
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kDataBase + i, 1},
        flows[p.buf_flow[i] - 1]);
  }
  if (p.code_taint != 0) {
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kCodeBase,
                       p.code_taint == 1 ? code_len : code_len / 2},
        flows[0]);
  }

  // Host events between slices, one seeded sequence for every mode, so
  // they land between approved (and granted) blocks: code bytes tainted
  // or all cleared (the page drops), buffer bytes retainted for the next
  // pass's loads, which re-taint registers from bytes that may already
  // carry the process tag, and, while no fetch rule is bound, a late
  // tainted-fetch rule set.
  FootprintOutcome out;
  std::mt19937 events(seed * 104729u + 3);
  auto event_pick = [&](u32 n) { return static_cast<u32>(events() % n); };
  bool unbound = !bind_rules;
  auto interleave = [&] {
    switch (event_pick(16)) {
      case 0: {
        const u32 off = vm::kInsnSize * event_pick(code_len / vm::kInsnSize);
        engine.on_packet_to_guest(
            osi::GuestXfer{osi.proc, &env.as, kCodeBase + off,
                           1 + event_pick(code_len - off)},
            flows[1]);
        break;
      }
      case 1:
        engine.on_kernel_write(
            osi::GuestXfer{osi.proc, &env.as, kCodeBase, code_len});
        break;
      case 2:
        engine.on_packet_to_guest(
            osi::GuestXfer{osi.proc, &env.as,
                           kDataBase + event_pick(kTaintBufBytes), 1},
            flows[event_pick(3)]);
        break;
      case 3:
        if (!unbound) break;
        unbound = false;
        out.metrics_unbound = engine.metrics_snapshot();
        engine.add_rule_set({rule("late-fetch", core::Trigger::kTaintedFetch,
                                  {})});
        break;
      default: break;
    }
  };

  // Ten passes under one seeded sequence of budget slices, so blocks
  // are also cut short and re-entered mid-way. Passes 0 and 5 start at
  // the entry block's loads; the others go straight to the elidable
  // blocks, where register taint settles after a pass or two and grants
  // then hold unless an event moved the epoch, with
  // four register values reset (often to zero, so a kDivu that divided
  // before may now trap inside a granted body). A divide by zero resumes
  // at the next instruction, as a kernel handler would.
  std::mt19937 slices(seed * 7919u + 1);
  const VAddr b0 = kCodeBase + p.code.label_offset("b0").value();
  for (int pass = 0; pass < 10; ++pass) {
    if (pass % 5 == 0) {
      env.cpu.set_pc(kCodeBase);
    } else {
      env.cpu.set_pc(b0);
      for (int k = 0; k < 4; ++k) {
        env.cpu.regs[event_pick(vm::LR + 1)] =
            event_pick(2) == 0 ? 0 : event_pick(100);
      }
    }
    for (;;) {
      interleave();
      hooks.short_body = false;
      StepInfo info = env.run(1 + slices() % 40);
      if (info.result == StepResult::kHalt) break;
      if (info.result == StepResult::kTrap) {
        if (info.trap != vm::TrapKind::kDivZero) {
          ADD_FAILURE() << "seed " << seed << " trapped at " << info.pc;
          break;
        }
        ++out.traps;
        if (hooks.short_body) ++out.trapped_bodies;
        env.cpu.set_pc(info.pc + vm::kInsnSize);
      }
    }
  }

  const core::ShadowRegisters* sr = engine.registers(env.as.cr3());
  EXPECT_NE(sr, nullptr);
  for (u8 r = 0; r < vm::kNumRegs && sr; ++r) {
    for (u8 b = 0; b < 4; ++b) {
      out.regs.push_back(engine.store().get(sr->get(r, b)));
    }
  }
  engine.shadow().for_each_tainted([&](PAddr pa, core::ProvListId id) {
    out.mem.emplace_back(pa, engine.store().get(id));
  });
  std::sort(out.mem.begin(), out.mem.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  out.store_size = engine.store().size();
  out.stats = engine.stats();
  for (u32 set = 0; set < engine.rule_set_count(); ++set) {
    for (const core::Finding& f : engine.findings(set)) {
      out.findings.push_back(
          std::to_string(set) + "/" + f.policy + "@" +
          std::to_string(f.instr_index) + ":" + std::to_string(f.insn_va) +
          " fetch=" + tags_str(engine.store(), f.fetch_prov) +
          " target=" + tags_str(engine.store(), f.target_prov));
    }
    const core::RuleEngine& re = engine.rule_engine(set);
    for (u32 i = 0; i < re.rule_count(); ++i) {
      out.rule_stats.push_back(re.rule_stats(i));
    }
  }
  out.metrics = engine.metrics_snapshot();
  if (unbound) out.metrics_unbound = out.metrics;
  out.instrumented = hooks.instrumented;
  return out;
}

TEST(BtCacheEngine, FootprintGuardMatchesUncachedPathOnRandomBlocks) {
  // Block cache on (footprint-guarded elision, with and without elision
  // grants) and off (every instruction through Table I) must end in the
  // same analysis state, with the syscall-arg and tainted-fetch rules
  // unbound and bound — also where a kDivu traps inside an approved or
  // granted body, on clean and tainted code pages, and with host events
  // (code taint laid and cleared, buffer retaint, a late fetch rule set)
  // landing between blocks.
  constexpr u32 kSeeds = 48;
  for (bool bind : {false, true}) {
    u64 elided = 0, trapped = 0, trapped_on_tainted_code = 0;
    obs::MetricSnapshot sum, sum_unbound;
    for (u32 seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " bind "
                                        << bind);
      const FootprintProgram p = random_footprint_program(seed);
      const FootprintOutcome off = run_footprint(p, seed, false, bind);
      for (bool grants : {true, false}) {
        SCOPED_TRACE(::testing::Message() << "grants " << grants);
        const FootprintOutcome on = run_footprint(p, seed, true, bind, grants);
        ASSERT_EQ(on.regs.size(), vm::kNumRegs * 4u);
        ASSERT_EQ(on.regs.size(), off.regs.size());
        for (size_t i = 0; i < on.regs.size(); ++i) {
          EXPECT_EQ(on.regs[i], off.regs[i])
              << "register r" << i / 4 << " byte " << i % 4;
        }
        EXPECT_EQ(on.mem, off.mem);
        EXPECT_EQ(on.store_size, off.store_size);
        EXPECT_EQ(on.traps, off.traps);
        EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
        EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
        EXPECT_EQ(on.stats.policy_evals, off.stats.policy_evals);
        EXPECT_EQ(on.findings, off.findings);
        expect_same_rule_stats(on.rule_stats, off.rule_stats);
        // Uncached, every instruction reaches the engine one by one;
        // cached, the elided count is exactly what did not.
        EXPECT_EQ(off.stats.elided_insns, 0u);
        EXPECT_EQ(off.instrumented, off.stats.insns_seen);
        EXPECT_EQ(on.stats.elided_insns,
                  off.stats.insns_seen - on.instrumented);
        if (!grants) {
          EXPECT_EQ(on.metrics[obs::Ctr::kBtGranted], 0u);
          continue;
        }
        elided += on.stats.elided_insns;
        trapped += on.trapped_bodies;
        if (p.code_taint != 0) trapped_on_tainted_code += on.trapped_bodies;
        for (u32 c = 0; c < obs::kCtrCount; ++c) {
          sum.counters[c] += on.metrics.counters[c];
          sum_unbound.counters[c] += on.metrics_unbound.counters[c];
        }
      }
    }
    using obs::Ctr;
    // The workload must exercise every guard outcome and the grants, and
    // the decline reasons must add up to bt_guard_fail.
    EXPECT_GT(elided, 0u);
    EXPECT_GT(trapped, 0u);
    EXPECT_GT(sum[Ctr::kBtGranted], 0u);
    EXPECT_LE(sum[Ctr::kBtGranted], sum[Ctr::kBtElidedBlocks]);
    EXPECT_GT(sum[Ctr::kBtDeclineTaintedRead], 0u);
    EXPECT_EQ(sum[Ctr::kBtGuardFail], sum[Ctr::kBtDeclineTaintedRead] +
                                          sum[Ctr::kBtDeclineSyscallArg] +
                                          sum[Ctr::kBtDeclineFetchRule]);
    EXPECT_GT(sum[Ctr::kBtDeclineFetchRule], 0u);
    if (bind) {
      EXPECT_GT(sum[Ctr::kBtDeclineSyscallArg], 0u);
    } else {
      // Unbound, tainted code pages still elide, prefix walk included,
      // and nothing declines for a rule it does not bind: syscall-arg never
      // (the late set binds only tainted-fetch), tainted-fetch not before
      // the late set arrives.
      EXPECT_GT(trapped_on_tainted_code, 0u);
      EXPECT_EQ(sum[Ctr::kBtDeclineSyscallArg], 0u);
      EXPECT_EQ(sum_unbound[Ctr::kBtDeclineFetchRule], 0u);
    }
  }
}

/// A kDivu loop run under one engine, then under a second one attached to
/// the same interpreter; returns the second engine's stats. The first
/// engine taints the loop block's 32 code bytes, the second 32 bytes
/// starting half-way into it: the same number of shadow writes, so both
/// shadows stamp the code page alike, but only half the block's fetches
/// are tainted for the second.
core::EngineStats run_after_plugin_swap(bool block_cache) {
  CpuEnv env(block_cache);
  Assembler a;
  a.movi(R1, 0);
  a.jmp("loop");
  a.label("loop");
  a.addi(R1, R1, 1);
  a.movi(vm::R7, 9);
  a.divu(R3, R1, vm::R7);
  a.jmp("loop");
  env.load(a);
  OneProcessOsi osi;
  osi.proc = {1, 0, env.as.cr3(), "loop.exe"};
  const VAddr loop = kCodeBase + a.label_offset("loop").value();
  auto taint = [&](core::FarosEngine& e, VAddr va) {
    e.on_packet_to_guest(osi::GuestXfer{osi.proc, &env.as, va,
                                        4 * vm::kInsnSize},
                         FlowTuple{0x0a000001, 4444, 0x0a000002, 5000});
  };

  core::FarosEngine first(osi, core::Options{});
  taint(first, loop);
  env.interp.set_hooks(&first);
  env.run(4000);
  EXPECT_EQ(first.stats().insns_seen, 4000u);
  if (block_cache) {
    EXPECT_GT(first.metrics_snapshot()[obs::Ctr::kBtGranted], 400u);
  }

  core::FarosEngine second(osi, core::Options{});
  taint(second, loop + 2 * vm::kInsnSize);
  env.interp.set_hooks(&second);
  env.run(4000);
  if (block_cache) {
    EXPECT_GT(second.metrics_snapshot()[obs::Ctr::kBtGranted], 400u);
  }
  return second.stats();
}

TEST(BtCacheEngine, SwappingPluginsForgetsWhatTheOldOneCachedOnBlocks) {
  // Grants on a TranslatedBlock belong to the plugin that made them. A
  // grant kept across the swap would match the second engine's epoch and
  // hand it the first engine's tainted-fetch count.
  const core::EngineStats cached = run_after_plugin_swap(true);
  const core::EngineStats plain = run_after_plugin_swap(false);
  EXPECT_GT(cached.elided_insns, 3000u);
  EXPECT_EQ(cached.insns_seen, plain.insns_seen);
  EXPECT_GT(plain.tainted_fetches, 0u);
  EXPECT_EQ(cached.tainted_fetches, plain.tainted_fetches);
}

TEST(BtCacheEngine, TwoProcessesOfOneIdleImageBothElideInSteadyState) {
  // Two NtYield spinners from one image, each idling with a tainted r5 it
  // never reads (an injected payload's shape). Every steady-state block —
  // the `movi r0; syscall` tail block and the jmp — must be elided in both
  // processes, with the tainted-fetch count answered by each block's grant
  // or, for a budget-cut prefix, by the fetch cache: no fetch walk at all.
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());
  auto img = attacks::build_dirty_idle_program("idle.exe");
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/idle.exe", img.value().serialize());
  std::vector<PAddr> cr3s;
  for (int i = 0; i < 2; ++i) {
    auto pid = m.kernel().spawn("C:/idle.exe");
    ASSERT_TRUE(pid.ok());
    cr3s.push_back(m.kernel().find(pid.value())->as.cr3());
  }
  m.run(20000);
  const obs::MetricSnapshot before = engine.metrics_snapshot();
  m.run(100000);
  const obs::MetricSnapshot after = engine.metrics_snapshot();
  auto delta = [&](obs::Ctr c) { return after[c] - before[c]; };

  using obs::Ctr;
  for (PAddr cr3 : cr3s) {
    const core::ShadowRegisters* sr = engine.registers(cr3);
    ASSERT_NE(sr, nullptr);
    EXPECT_FALSE(sr->clean());
  }
  ASSERT_GT(delta(Ctr::kInsnsRetired), 50000u);
  EXPECT_GT(delta(Ctr::kTaintedFetches), 0u);  // the image is file-tagged
  EXPECT_GE(static_cast<double>(delta(Ctr::kBtElidedInsns)),
            0.99 * static_cast<double>(delta(Ctr::kInsnsRetired)));
  EXPECT_EQ(delta(Ctr::kBtGuardFail), 0u);
  EXPECT_EQ(delta(Ctr::kFetchCacheMiss), 0u);
  EXPECT_EQ(delta(Ctr::kAppendMemoHit) + delta(Ctr::kAppendMemoMiss), 0u);
}

/// Two processes of one file-tagged image call kernel32's Sleep(1) in a
/// loop; Sleep's code lives in frames every process maps, and its bytes
/// carry a netflow tag. Each round loads the image's tagged word into r5
/// and zeroes it again, so the engine's elision epoch moves every round
/// and Sleep's elidable blocks go back to on_block_elided instead of
/// running on their grants. The second process starts once the first has
/// idled long enough to fill the fetch cache for every Sleep instruction.
struct SharedSleepRun {
  core::EngineStats stats;
  u64 engine_elided_blocks = 0;  // elided dispatches the engine accounted
  std::vector<os::Pid> pids;
  /// Pids of the process tags on each Sleep instruction's first byte.
  std::vector<std::set<os::Pid>> code_pids;
};

SharedSleepRun run_shared_sleepers(bool block_cache) {
  constexpr u32 kSleepInsns = 8;  // Sleep's body, `ret` included
  os::Machine m;
  m.kernel().interp().set_block_cache_enabled(block_cache);
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  EXPECT_TRUE(m.boot().ok());

  os::ImageBuilder ib("sleeper.exe", os::kUserImageBase);
  ib.import_symbol(os::sym::kKernel32, os::sym::kSleep, "slot");
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi_label(vm::R6, "word");
  a.movi_label(vm::R8, "slot");
  a.ld32(vm::R8, vm::R8, 0);
  a.label("loop");
  a.ld32(R5, vm::R6, 0);  // r5 turns tainted: the epoch moves
  a.xor_(R5, R5, R5);
  a.movi(R1, 1);
  a.callr(vm::R8);
  a.jmp("loop");
  a.align(8);
  a.label("slot");
  a.data_u32(0);
  a.label("word");
  a.data_u32(0x5eed);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  const os::Image& image = img.value();
  m.kernel().vfs().create("C:/sleeper.exe", image.serialize());

  SharedSleepRun out;
  auto spawn = [&] {
    auto pid = m.kernel().spawn("C:/sleeper.exe");
    EXPECT_TRUE(pid.ok());
    out.pids.push_back(pid.value());
    return m.kernel().find(pid.value());
  };
  const os::Process* first = spawn();
  const VAddr sleep_va =
      first->as.read32_or(image.base_va + image.imports[0].slot_offset, 0);
  EXPECT_NE(sleep_va, 0u);
  const vm::AddressSpace& kas = m.kernel().kernel_as();
  osi::ProcessInfo kernel_side;
  kernel_side.cr3 = kas.cr3();
  engine.on_packet_to_guest(
      osi::GuestXfer{kernel_side, &kas, sleep_va, kSleepInsns * vm::kInsnSize},
      FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162});
  m.run(20000);
  spawn();
  m.run(40000);

  out.stats = engine.stats();
  const obs::MetricSnapshot snap = engine.metrics_snapshot();
  out.engine_elided_blocks =
      snap[obs::Ctr::kBtElidedBlocks] - snap[obs::Ctr::kBtGranted];
  for (u32 i = 0; i < kSleepInsns; ++i) {
    std::set<os::Pid> pids;
    const core::ProvListId id =
        engine.prov_at(kas, sleep_va + i * vm::kInsnSize);
    for (const core::ProvTag& t : engine.store().get(id)) {
      if (t.type() == core::TagType::kProcess) {
        pids.insert(engine.maps().process.get(t.index()).pid);
      }
    }
    out.code_pids.push_back(pids);
  }
  return out;
}

TEST(BtCacheEngine, SharedCodeFetchedByTwoProcessesCarriesBothTags) {
  // Elided and instrumented fetches share one fetch cache, keyed by the
  // fetching process: the second process's first walk over Sleep must
  // append its own tag, not reuse the first process's cached result.
  const SharedSleepRun on = run_shared_sleepers(true);
  const SharedSleepRun off = run_shared_sleepers(false);
  ASSERT_EQ(on.pids.size(), 2u);
  EXPECT_GT(on.stats.elided_insns, 10000u);
  EXPECT_GT(on.engine_elided_blocks, 1000u);  // the grants keep failing
  for (u32 i = 0; i < on.code_pids.size(); ++i) {
    for (os::Pid pid : on.pids) {
      EXPECT_EQ(on.code_pids[i].count(pid), 1u) << "insn " << i << " pid "
                                                << pid;
    }
  }
  EXPECT_EQ(on.code_pids, off.code_pids);
  EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
  EXPECT_GT(off.stats.tainted_fetches, 0u);
  EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
}

/// A loop whose superblock is `loop: addi r6; jmp tail` chained with
/// `tail: movi r7, 1; add r9, r9, r7; cmpi r6, 3; beq patcher`. On the
/// third iteration `patcher` rewrites the tail's movi immediate to 100, so
/// six iterations sum 1+1+1+100+100+100; the program prints the sum and
/// idles. Only the superblock ever holds the tail: entry is a conditional
/// branch (never chained) into `loop`.
os::Image build_tail_patcher() {
  os::ImageBuilder ib("tailpatch.exe", os::kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi(vm::R6, 0);
  a.movi(vm::R9, 0);
  a.cmp(vm::R6, vm::R6);
  a.beq("loop");
  a.label("loop");
  a.addi(vm::R6, vm::R6, 1);
  a.jmp("tail");
  a.label("patcher");
  a.movi_label(vm::R8, "tail");
  a.movi(vm::R10, 100);
  a.st32(vm::R8, 4, vm::R10);  // the movi's imm32 word
  a.jmp("loop");
  a.label("tail");
  a.movi(vm::R7, 1);
  a.add(vm::R9, vm::R9, vm::R7);
  a.cmpi(vm::R6, 3);
  a.beq("patcher");
  a.cmpi(vm::R6, 6);
  a.bne("loop");
  a.movi_label(R1, "sum");
  a.st32(R1, 0, vm::R9);
  a.movi(R2, 4);
  attacks::emit_sys(a, os::Sys::kNtDebugPrint);
  a.label("idle");
  attacks::emit_sys(a, os::Sys::kNtYield);
  a.jmp("idle");
  a.label("sum");
  a.data_u32(0);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  return img.value();
}

TEST(BtCacheOs, StoreIntoChainedSegmentEvictsTheSuperblock) {
  struct Outcome {
    u32 regs[vm::kNumRegs] = {};
    std::vector<std::string> console;
    core::EngineStats stats;
    u64 evict_smc = 0;
  };
  auto run = [](bool block_cache) {
    os::Machine m;
    m.kernel().interp().set_block_cache_enabled(block_cache);
    core::FarosEngine engine(m.kernel(), core::Options{});
    m.attach_cpu_plugin(&engine);
    m.add_monitor(&engine);
    EXPECT_TRUE(m.boot().ok());
    m.kernel().vfs().create("C:/tailpatch.exe",
                            build_tail_patcher().serialize());
    const vm::BlockCache* btc = m.kernel().interp().block_cache();
    const u64 evict_before = btc ? btc->stats().evict_smc : 0;
    auto pid = m.kernel().spawn("C:/tailpatch.exe");
    EXPECT_TRUE(pid.ok());
    m.run(5000);
    Outcome out;
    const os::Process* p = m.kernel().find(pid.value());
    EXPECT_NE(p, nullptr);
    if (p) std::copy(p->cpu.regs, p->cpu.regs + vm::kNumRegs, out.regs);
    out.console = m.kernel().console();
    out.stats = engine.stats();
    if (btc) out.evict_smc = btc->stats().evict_smc - evict_before;
    return out;
  };
  const Outcome on = run(true);
  const Outcome off = run(false);
  // The patch lands in the chained segment only: it evicts the one
  // superblock holding it, and the next iteration runs the new bytes.
  EXPECT_EQ(on.evict_smc, 1u);
  EXPECT_EQ(on.regs[vm::R9], 303u);
  for (u32 r = 0; r < vm::kNumRegs; ++r) {
    EXPECT_EQ(on.regs[r], off.regs[r]) << "r" << r;
  }
  ASSERT_EQ(on.console.size(), 1u);
  EXPECT_EQ(on.console, off.console);
  EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
  EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
  EXPECT_GT(on.stats.elided_insns, 0u);
}

TEST(BtCacheEngine, BudgetCutInsideElidableSuperblockMatchesUncached) {
  // A superblock on a netflow-tainted code page, entered with a tainted
  // register it never reads, run in slices of 1..7 instructions so the
  // budget ends at every offset of it, both segments and the split.
  struct Outcome {
    core::EngineStats stats;
    std::vector<std::vector<core::ProvTag>> regs;
    u64 short_bodies = 0;
  };
  auto run = [](bool block_cache) {
    CpuEnv env(block_cache);
    Assembler a;
    a.label("loop");
    a.addi(R1, R1, 1);
    a.mov(R2, R1);
    a.jmp("tail");
    a.label("tail");
    a.movi(R3, 5);
    a.add(R4, R3, R2);
    a.cmpi(R1, 200);
    a.bne("loop");
    a.halt();
    env.load(a);
    OneProcessOsi osi;
    osi.proc = {1, 0, env.as.cr3(), "cut.exe"};
    core::FarosEngine engine(osi, core::Options{});
    CountingHooks hooks;
    hooks.inner = &engine;
    env.interp.set_hooks(&hooks);
    const FlowTuple flow{0x0a000001, 4444, 0x0a000002, 5000};
    // Taint the code bytes, and r5 through a tainted load.
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kCodeBase, 7 * vm::kInsnSize},
        flow);
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kDataBase, 4}, flow);
    Assembler pre;
    pre.movi(R5, kDataBase);
    pre.ld32(R5, R5);
    pre.halt();
    env.load(pre, kCodeBase + vm::kPageSize);
    EXPECT_EQ(env.run().result, StepResult::kHalt);
    env.cpu.set_pc(kCodeBase);
    u32 slice = 0;
    for (;;) {
      StepInfo info = env.run(1 + slice++ % 7);
      if (info.result == StepResult::kHalt) break;
      EXPECT_EQ(info.result, StepResult::kBudget);
    }
    Outcome out;
    out.stats = engine.stats();
    const core::ShadowRegisters* sr = engine.registers(env.as.cr3());
    EXPECT_NE(sr, nullptr);
    for (u8 r = 0; r < vm::kNumRegs && sr; ++r) {
      for (u8 b = 0; b < 4; ++b) {
        out.regs.push_back(engine.store().get(sr->get(r, b)));
      }
    }
    out.short_bodies = hooks.short_bodies;
    return out;
  };
  const Outcome on = run(true);
  const Outcome off = run(false);
  EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
  EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
  EXPECT_GT(on.stats.tainted_fetches, 1000u);
  EXPECT_EQ(on.regs, off.regs);
  EXPECT_FALSE(on.regs[R5 * 4].empty());  // the bank stayed dirty
  // Budget-cut prefixes ran elided (the loop has no kDivu to trap).
  EXPECT_GT(on.short_bodies, 0u);
  EXPECT_GT(on.stats.elided_insns, on.stats.insns_seen / 2);
}

// --- elision grants: what must revoke them ---------------------------------

/// One elidable 3-instruction block per iteration: `loop: addi r1, r1, 1;
/// cmpi r1, kGrantLoopIters; bne loop`, then halt.
constexpr i32 kGrantLoopIters = 300;
Assembler grant_loop() {
  Assembler a;
  a.label("loop");
  a.addi(R1, R1, 1);
  a.cmpi(R1, kGrantLoopIters);
  a.bne("loop");
  a.halt();
  return a;
}

struct GrantRun {
  core::EngineStats stats;
  obs::MetricSnapshot metrics;  // at the end
  u64 granted_first_half = 0;   // bt_granted before `between`
  std::vector<std::vector<core::ProvTag>> regs;  // 16 registers x 4 bytes
  std::vector<std::string> findings;             // "set/policy@instr_index"
  std::vector<core::RuleStats> rule_stats;       // every set's rules
};

/// Runs `prog` under one engine with the cache on or off: `before` places
/// taint, the first `half` instructions run, `between` acts on the engine,
/// and the rest runs to the halt.
template <typename Before, typename Between>
GrantRun run_grant_program(const Assembler& prog, bool block_cache, u64 half,
                           Before before, Between between) {
  CpuEnv env(block_cache);
  env.load(prog);
  OneProcessOsi osi;
  osi.proc = {1, 0, env.as.cr3(), "grant.exe"};
  core::FarosEngine engine(osi, core::Options{});
  env.interp.set_hooks(&engine);
  before(engine, env, osi.proc);
  EXPECT_EQ(env.run(half).result, StepResult::kBudget);
  GrantRun out;
  out.granted_first_half = engine.metrics_snapshot()[obs::Ctr::kBtGranted];
  between(engine, env, osi.proc);
  EXPECT_EQ(env.run().result, StepResult::kHalt);
  out.stats = engine.stats();
  out.metrics = engine.metrics_snapshot();
  const core::ShadowRegisters* sr = engine.registers(env.as.cr3());
  EXPECT_NE(sr, nullptr);
  for (u8 r = 0; r < vm::kNumRegs && sr; ++r) {
    for (u8 b = 0; b < 4; ++b) {
      out.regs.push_back(engine.store().get(sr->get(r, b)));
    }
  }
  for (u32 set = 0; set < engine.rule_set_count(); ++set) {
    for (const core::Finding& f : engine.findings(set)) {
      out.findings.push_back(std::to_string(set) + "/" + f.policy + "@" +
                             std::to_string(f.instr_index));
    }
    const core::RuleEngine& re = engine.rule_engine(set);
    for (u32 i = 0; i < re.rule_count(); ++i) {
      out.rule_stats.push_back(re.rule_stats(i));
    }
  }
  return out;
}

void expect_same_grant_runs(const GrantRun& on, const GrantRun& off) {
  EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
  EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
  EXPECT_EQ(on.stats.policy_evals, off.stats.policy_evals);
  EXPECT_EQ(on.regs, off.regs);
  EXPECT_EQ(on.findings, off.findings);
  expect_same_rule_stats(on.rule_stats, off.rule_stats);
  EXPECT_EQ(off.metrics[obs::Ctr::kBtGranted], 0u);
}

const FlowTuple kGrantFlow{0x0a000001, 4444, 0x0a000002, 5000};

TEST(BtCacheGrant, ClearingTheLastTaintedCodeByteRevokesTheGrant) {
  // One byte of the loop's addi carries netflow taint, so every iteration
  // is a tainted fetch, answered by the grant after the first. Half-way
  // the byte is cleared, by a kernel write (ShadowMemory::set drops the
  // page) or a frame recycle (clear_range drops it whole): from then on no
  // fetch is tainted. A page drop that left the epoch alone would keep
  // the grant, and its count, alive.
  for (bool recycle : {false, true}) {
    SCOPED_TRACE(recycle ? "frame recycle" : "kernel write");
    auto before = [](core::FarosEngine& e, CpuEnv& env,
                     const osi::ProcessInfo& p) {
      e.on_packet_to_guest(osi::GuestXfer{p, &env.as, kCodeBase + 1, 1},
                           kGrantFlow);
    };
    auto between = [recycle](core::FarosEngine& e, CpuEnv& env,
                             const osi::ProcessInfo& p) {
      if (recycle) {
        auto pa = env.as.translate(kCodeBase, vm::AccessType::kRead, false);
        ASSERT_TRUE(pa.has_value());
        e.on_frame_recycled(vm::page_floor(static_cast<u32>(*pa)));
      } else {
        e.on_kernel_write(osi::GuestXfer{p, &env.as, kCodeBase + 1, 1});
      }
      EXPECT_EQ(e.shadow().pages(), 0u);
    };
    constexpr u64 kHalf = 3 * kGrantLoopIters / 2;
    const GrantRun on = run_grant_program(grant_loop(), true, kHalf, before,
                                          between);
    const GrantRun off = run_grant_program(grant_loop(), false, kHalf, before,
                                           between);
    expect_same_grant_runs(on, off);
    EXPECT_EQ(on.stats.tainted_fetches, kGrantLoopIters / 2u);
    EXPECT_GE(on.granted_first_half, kGrantLoopIters / 2u - 1);
    EXPECT_GE(on.metrics[obs::Ctr::kBtGranted], kGrantLoopIters - 3u);
  }
}

TEST(BtCacheGrant, RegisterTaintedWithoutAShadowWriteRevokesTheGrant) {
  // `body` reads r5 and is granted while r5 is clean. Then r5 is loaded
  // from bytes that already carry this process's tag (the first load
  // appended it), so the load writes no shadow byte; only the register
  // bank turning dirty moves the epoch. The next `body` must decline and
  // run instrumented, tainting r6; a stale grant would leave r6 clean.
  Assembler a;
  a.movi(vm::R12, kDataBase);
  a.ld32(R5, vm::R12);
  a.movi(R5, 0);
  a.movi(vm::R8, 0);
  a.jmp("body");
  a.label("body");
  a.add(vm::R6, R5, R5);
  a.addi(vm::R8, vm::R8, 1);
  a.cmpi(vm::R8, 100);
  a.blt("body");
  a.ld32(R5, vm::R12);
  a.cmpi(vm::R8, 200);
  a.blt("body");
  a.halt();
  auto before = [](core::FarosEngine& e, CpuEnv& env,
                   const osi::ProcessInfo& p) {
    e.on_packet_to_guest(osi::GuestXfer{p, &env.as, kDataBase, 4},
                         kGrantFlow);
  };
  auto nothing = [](core::FarosEngine&, CpuEnv&, const osi::ProcessInfo&) {};
  const GrantRun on = run_grant_program(a, true, 300, before, nothing);
  const GrantRun off = run_grant_program(a, false, 300, before, nothing);
  expect_same_grant_runs(on, off);
  EXPECT_FALSE(on.regs[vm::R6 * 4].empty());
  EXPECT_GE(on.metrics[obs::Ctr::kBtGranted], 90u);
  EXPECT_GE(on.metrics[obs::Ctr::kBtDeclineTaintedRead], 99u);
}

TEST(BtCacheGrant, FetchRuleSetAddedMidRunRevokesTheGrant) {
  // The loop runs from netflow-tainted code with no fetch rule bound, so
  // its block is granted. A tainted-fetch rule set added half-way must
  // see every later fetch, exactly as with the cache off.
  auto before = [](core::FarosEngine& e, CpuEnv& env,
                   const osi::ProcessInfo& p) {
    e.on_packet_to_guest(
        osi::GuestXfer{p, &env.as, kCodeBase, 3 * vm::kInsnSize}, kGrantFlow);
  };
  auto add_set = [](core::FarosEngine& e, CpuEnv&, const osi::ProcessInfo&) {
    e.add_rule_set({rule("late-fetch", core::Trigger::kTaintedFetch, {})});
  };
  constexpr u64 kHalf = 3 * kGrantLoopIters / 2;
  const GrantRun on = run_grant_program(grant_loop(), true, kHalf, before,
                                        add_set);
  const GrantRun off = run_grant_program(grant_loop(), false, kHalf, before,
                                         add_set);
  expect_same_grant_runs(on, off);
  EXPECT_GE(on.granted_first_half, kGrantLoopIters / 2u - 1);
  ASSERT_FALSE(on.rule_stats.empty());
  EXPECT_EQ(on.rule_stats.back().evals, kHalf);
  EXPECT_EQ(on.findings.size(), 3u);  // one per instruction site, deduped
}

TEST(BtCacheGrant, KDivuTrapAndBudgetCutInsideAGrantedBlockStayExact) {
  // The loop's block divides by r1 & 7, which is zero every eighth
  // iteration: a granted body then traps at the kDivu and reports its
  // prefix through on_block_elided, and the divide is skipped as a kernel
  // handler would. Budget slices of 1..11 instructions also cut the block
  // short, which takes the guard path. Code bytes are tainted, so the
  // prefix and whole-block fetch counts both matter.
  Assembler a;
  a.movi(R4, 1000);
  a.jmp("loop");
  a.label("loop");
  a.addi(R1, R1, 1);
  a.andi(R2, R1, 7);
  a.divu(R3, R4, R2);
  a.cmpi(R1, 400);
  a.bne("loop");
  a.halt();
  auto run = [&](bool block_cache) {
    CpuEnv env(block_cache);
    env.load(a);
    OneProcessOsi osi;
    osi.proc = {1, 0, env.as.cr3(), "divgrant.exe"};
    core::FarosEngine engine(osi, core::Options{});
    CountingHooks hooks;
    hooks.inner = &engine;
    env.interp.set_hooks(&hooks);
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kCodeBase, 4 * vm::kInsnSize},
        kGrantFlow);
    u32 slice = 0;
    u64 traps = 0;
    for (;;) {
      StepInfo info = env.run(1 + slice++ % 11);
      if (info.result == StepResult::kHalt) break;
      if (info.result == StepResult::kTrap) {
        EXPECT_EQ(info.trap, vm::TrapKind::kDivZero);
        ++traps;
        env.cpu.set_pc(info.pc + vm::kInsnSize);
      }
    }
    EXPECT_EQ(traps, 50u);
    return std::make_tuple(engine.stats(), engine.metrics_snapshot(),
                           hooks.granted_reports, hooks.short_bodies);
  };
  const auto [on, on_m, granted_traps, short_bodies] = run(true);
  const auto [off, off_m, off_granted, off_short] = run(false);
  EXPECT_EQ(on.insns_seen, off.insns_seen);
  EXPECT_EQ(on.tainted_fetches, off.tainted_fetches);
  // movi and jmp once, then addi and andi in each of 400 iterations.
  EXPECT_EQ(on.tainted_fetches, 802u);
  EXPECT_GT(on_m[obs::Ctr::kBtGranted], 0u);
  EXPECT_GT(granted_traps, 0u);                // kDivu traps on a grant
  EXPECT_GT(short_bodies, granted_traps);      // ... and budget cuts
  EXPECT_EQ(on.elided_insns, on_m[obs::Ctr::kBtElidedInsns]);
}

// --- block chaining: successor links and exit records ----------------------

/// Registers, the retired-instruction count and every run() outcome, for
/// comparing a chained run with the cache-off reference.
struct ChainOutcome {
  u32 regs[vm::kNumRegs] = {};
  u64 instr_count = 0;
  std::vector<std::string> steps;  // result, trap, fault, pc per run()
  u64 chained = 0;
  u64 evict_smc = 0;
  u64 evict_cr3 = 0;

  void record(const StepInfo& info) {
    steps.push_back(std::to_string(static_cast<int>(info.result)) + "/" +
                    vm::trap_kind_name(info.trap) + "/" +
                    std::to_string(static_cast<int>(info.fault.kind)) + "@" +
                    std::to_string(info.fault.va) + "/" +
                    std::to_string(info.executed));
  }
  void finish(const CpuState& cpu, const Interpreter& interp) {
    std::copy(cpu.regs, cpu.regs + vm::kNumRegs, regs);
    instr_count = interp.instr_count();
    if (const vm::BlockCache* btc = interp.block_cache()) {
      chained = btc->stats().chained;
      evict_smc = btc->stats().evict_smc;
      evict_cr3 = btc->stats().evict_cr3;
    }
  }
};

void expect_same_outcome(const ChainOutcome& on, const ChainOutcome& off) {
  for (u32 r = 0; r < vm::kNumRegs; ++r) {
    EXPECT_EQ(on.regs[r], off.regs[r]) << "r" << r;
  }
  EXPECT_EQ(on.instr_count, off.instr_count);
  EXPECT_EQ(on.steps, off.steps);
}

/// `loop: movi r4, imm; movi r0, NtYield; syscall; jmp loop`. After the
/// first round every round resumes at the jmp, one superblock dispatch.
Assembler yield_loop(u32 imm) {
  Assembler a;
  a.label("loop");
  a.movi(vm::R4, imm);
  a.movi(vm::R0, 53);  // NtYield
  a.syscall_();
  a.jmp("loop");
  return a;
}
constexpr VAddr kYieldResumePc = kCodeBase + 3 * vm::kInsnSize;

TEST(BtCacheChain, StoreIntoLinkedSuccessorWithinOneQuantumMatchesUncached) {
  // `tail` runs once on its own early on and links to `succ`. Later the
  // instrumented `loop` block stores into succ's immediate: the store
  // evicts succ and cuts loop's dispatch short, so `tail` runs on its own
  // again, its link still naming the freed succ. Following that link
  // without the epoch check would run the stale bytes (or freed memory).
  Assembler a;
  a.movi(R1, 0);
  a.movi(R5, 0);
  a.addpc_label(R2, "scratch");
  a.movi(R3, 222);
  a.cmp(R1, R1);
  a.beq("tail");
  a.label("loop");
  a.st32(R2, 4, R3);
  a.label("tail");
  a.addi(R1, R1, 1);
  a.cmpi(R1, 8);
  a.beq("done");
  a.label("succ");
  a.movi(R4, 111);  // imm becomes 222 once R1 reaches 3
  a.add(R5, R5, R4);
  a.cmpi(R1, 3);
  a.bne("loop");
  a.addpc_label(R2, "succ");  // from now on the store hits succ
  a.jmp("loop");
  a.label("done");
  a.halt();
  a.label("scratch");
  a.zeros(8);
  for (bool instrumented : {false, true}) {
    auto run = [&](bool cache) {
      CpuEnv env(cache);
      vm::ExecHooks plain;  // observes nothing, keeps blocks instrumented
      if (instrumented) env.interp.set_hooks(&plain);
      env.load(a);
      ChainOutcome out;
      out.record(env.run(10000));
      out.finish(env.cpu, env.interp);
      return out;
    };
    const ChainOutcome on = run(true);
    const ChainOutcome off = run(false);
    expect_same_outcome(on, off);
    EXPECT_EQ(on.regs[R5], 3 * 111u + 4 * 222u) << instrumented;
    EXPECT_GE(on.evict_smc, 4u) << instrumented;
    EXPECT_GT(on.chained, 0u) << instrumented;
  }
}

TEST(BtCacheChain, ProtectOrUnmapBetweenQuantaWithALiveExitRecordFaults) {
  // The yield loop resumes through its exit record every round. Making
  // the code page non-executable, or unmapping it, between two rounds
  // changes no code byte and evicts nothing, so only the page-table epoch
  // (which clears the records with the TLB) stops the next round from
  // resuming through the old link.
  constexpr int kRounds = 8;
  for (bool unmap : {false, true}) {
    auto run = [&](bool cache) {
      CpuEnv env(cache);
      env.load(yield_loop(7));
      ChainOutcome out;
      for (int i = 0; i < kRounds; ++i) out.record(env.run(256));
      if (unmap) {
        EXPECT_TRUE(env.as.unmap_range(kCodeBase, 0x1000, false).ok());
      } else {
        EXPECT_TRUE(
            env.as.protect_range(kCodeBase, 0x1000, vm::kPteUser).ok());
      }
      out.record(env.run(256));
      out.finish(env.cpu, env.interp);
      return out;
    };
    const ChainOutcome on = run(true);
    const ChainOutcome off = run(false);
    expect_same_outcome(on, off);
    EXPECT_EQ(on.steps.back(),
              std::string("3/memory-fault/") +
                  std::to_string(static_cast<int>(
                      unmap ? vm::FaultKind::kNotMapped
                            : vm::FaultKind::kProtExec)) +
                  "@" + std::to_string(kYieldResumePc) + "/0")
        << unmap;
    // Every round after the first three resumed through a link.
    EXPECT_EQ(on.chained, kRounds - 3u) << unmap;
  }
}

TEST(BtCacheChain, RecycledCr3ResumingAtTheSamePcRunsItsOwnCode) {
  // The first space leaves its exit record at the yield loop's jmp and
  // dies without its blocks being evicted (no kernel here). The next space
  // gets the same CR3, maps its own code at the same VA on other frames,
  // and resumes at that very pc: it must run its own movi.
  auto run = [](bool cache) {
    CpuEnv env(cache);
    auto blob1 = yield_loop(1).assemble(kCodeBase);
    auto blob2 = yield_loop(2).assemble(kCodeBase);
    EXPECT_TRUE(blob1.ok() && blob2.ok());
    auto make_space = [&](const Bytes& code) {
      AddressSpace s = AddressSpace::create(env.mem, env.frames).value();
      EXPECT_TRUE(
          s.map_alloc(kCodeBase, 0x1000, vm::kPteUser | vm::kPteExec).ok());
      EXPECT_TRUE(s.copy_in(kCodeBase, code, false).ok());
      return s;
    };
    ChainOutcome out;
    AddressSpace first = make_space(blob1.value());
    CpuState c1;
    c1.set_pc(kCodeBase);
    for (int i = 0; i < 6; ++i) out.record(env.interp.run(c1, first, 256));
    const PAddr cr3 = first.cr3();
    // Keep the user frames allocated so the successor cannot land on them.
    first.destroy(/*free_user_frames=*/false);
    AddressSpace second = make_space(blob2.value());
    EXPECT_EQ(second.cr3(), cr3);
    CpuState c2;
    c2.set_pc(kYieldResumePc);
    out.record(env.interp.run(c2, second, 256));
    out.finish(c2, env.interp);
    return out;
  };
  const ChainOutcome on = run(true);
  const ChainOutcome off = run(false);
  expect_same_outcome(on, off);
  EXPECT_EQ(on.regs[vm::R4], 2u);
  EXPECT_GT(on.chained, 0u);
}

TEST(BtCacheChain, FlushAllMidChainMatchesUncached) {
  // A chained hot loop, then a sled of more one-instruction blocks than
  // the cache holds: translate() flushes every block in the middle of a
  // chain, freeing the block the loop just left, and the program returns
  // to the hot loop afterwards. Run whole and in odd slices, so exit
  // records straddle the flush too.
  constexpr VAddr kBase = 0x100000;
  constexpr u32 kSled = vm::BlockCache::kMaxBlocks + 64;
  Assembler a;
  a.movi(vm::R6, 0);
  a.label("restart");
  a.movi(R1, 0);
  a.label("hot");
  a.addi(R5, R5, 3);
  a.addi(R1, R1, 1);
  a.cmpi(R1, 50);
  a.bltu("hot");
  Bytes sled;
  for (u32 i = 0; i < kSled; ++i) {
    Instruction bne{};  // to the next instruction, taken or not
    bne.op = Opcode::kBne;
    vm::encode(bne, sled);
  }
  a.data(sled);
  a.addi(vm::R6, vm::R6, 1);
  a.cmpi(vm::R6, 2);
  a.bltu("restart");
  a.halt();
  for (u64 slice : {u64{1} << 20, u64{997}}) {
    auto run = [&](bool cache) {
      CpuEnv env(cache);
      env.load(a, kBase);
      ChainOutcome out;
      for (;;) {
        const StepInfo info = env.run(slice);
        out.record(info);
        if (info.result != StepResult::kBudget) break;
      }
      out.finish(env.cpu, env.interp);
      return out;
    };
    const ChainOutcome on = run(true);
    const ChainOutcome off = run(false);
    expect_same_outcome(on, off);
    EXPECT_EQ(on.regs[R5], 2 * 50 * 3u) << slice;
    EXPECT_GE(on.evict_cr3, vm::BlockCache::kMaxBlocks) << slice;
    EXPECT_GE(on.chained, 2 * 45u) << slice;
  }
}

TEST(BtCacheChain, TogglingTheCacheOffAndOnMatchesUncached) {
  // The yield loop leaves an exit record; the cache is switched off, the
  // loop's immediate patched and a round run uncached, then the cache is
  // switched on again (a fresh cache, whose epoch starts over) and the
  // immediate patched once more. The old record names a block of the
  // destroyed cache at an epoch the new one reaches again.
  auto patch = [](CpuEnv& env, u32 imm) {
    Bytes word(4);
    std::memcpy(word.data(), &imm, 4);
    EXPECT_TRUE(env.as.copy_in(kCodeBase + 4, word, false).ok());
  };
  auto run = [&](bool cache) {
    CpuEnv env(cache);
    env.load(yield_loop(1));
    ChainOutcome out;
    for (int i = 0; i < 6; ++i) out.record(env.run(256));
    out.steps.push_back("r4=" + std::to_string(env.cpu.regs[vm::R4]));
    env.interp.set_block_cache_enabled(false);
    patch(env, 2);
    out.record(env.run(256));
    out.steps.push_back("r4=" + std::to_string(env.cpu.regs[vm::R4]));
    env.interp.set_block_cache_enabled(cache);
    patch(env, 3);
    for (int i = 0; i < 4; ++i) out.record(env.run(256));
    out.finish(env.cpu, env.interp);
    return out;
  };
  const ChainOutcome on = run(true);
  const ChainOutcome off = run(false);
  expect_same_outcome(on, off);
  EXPECT_EQ(on.regs[vm::R4], 3u);
  EXPECT_GT(on.chained, 0u);
}

}  // namespace
}  // namespace faros
