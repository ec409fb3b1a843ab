// Block-translation cache: translate/hit accounting and block footprints,
// self-modifying code (guest stores into the executing block, host writes,
// randomized write fuzzing against the uncached interpreter), CR3 recycling
// across process lifetimes, engine elision accounting (also with extra
// policy sets on one engine), the footprint guard against the uncached
// path on random blocks and random register taint, and detection
// equivalence over a corpus slice with the cache on vs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "attacks/corpus.h"
#include "attacks/guest_common.h"
#include "attacks/programs.h"
#include "core/engine.h"
#include "farm/farm.h"
#include "farm/results.h"
#include "os/machine.h"
#include "os/runtime.h"
#include "sa/analyzer.h"
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
  // The kDivu keeps the block off the opcode-only offer (a hint may still
  // approve it); a final kSyscall alone would not.
  EXPECT_FALSE(b->elidable_ops);

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
  os::MachineConfig mc;
  mc.kernel.block_cache = block_cache;
  os::Machine m(mc);
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

/// A program whose middle block carries an elide hint (a kDivu with a
/// constant divisor) but is entered with a tainted register: r1 is loaded
/// from the file-tagged image, the kDivu moves that taint into r2, and the
/// push stores it.
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

/// The static analyzer's summary elide hints for `img`, as engine options.
core::Options hinted_options(const os::Image& img) {
  core::Options opts;
  for (const sa::ElideHint& h : sa::analyze_image(img).elide_hints)
    opts.elide_hints[h.va].emplace_back(h.insns, h.hash);
  EXPECT_FALSE(opts.elide_hints.empty());
  return opts;
}

/// Returns the engine's counters and tainted byte count after running
/// build_tainted_divu().
std::pair<obs::MetricSnapshot, u64> run_tainted_divu(bool hints) {
  os::Image img = build_tainted_divu();
  os::Machine m;
  core::Options opts = hints ? hinted_options(img) : core::Options{};
  core::FarosEngine engine(m.kernel(), opts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  EXPECT_TRUE(m.boot().ok());
  m.kernel().vfs().create("C:/taintdiv.exe", img.serialize());
  EXPECT_TRUE(m.kernel().spawn("C:/taintdiv.exe").ok());
  m.run(200000);
  return {engine.metrics_snapshot(), engine.shadow().tainted_bytes()};
}

TEST(BtCacheEngine, HintedBlockWithTaintedRegistersRunsInstrumented) {
  // A hint only makes a block eligible; try_elide_block's clean-bank guard
  // still decides. The corpus never enters a hinted block with a tainted
  // register, so this pins the guard directly.
  auto [plain, plain_bytes] = run_tainted_divu(false);
  auto [hinted, hinted_bytes] = run_tainted_divu(true);
  EXPECT_GE(hinted[obs::Ctr::kBtHintBlocks], 1u);
  EXPECT_GE(hinted[obs::Ctr::kBtGuardFail], 1u);
  EXPECT_GE(plain[obs::Ctr::kTaintedStores], 1u);
  EXPECT_EQ(hinted[obs::Ctr::kTaintedStores], plain[obs::Ctr::kTaintedStores]);
  EXPECT_EQ(hinted_bytes, plain_bytes);
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

/// A clean-register loop whose body divides by a constant: elidable only
/// through its summary hint (kDivu is not taint-inert on its own).
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

/// Runs `img` with block cache and summary hints under `primary` plus each
/// of `extra` as further sets.
SetsRun run_sets(const os::Image& img, std::vector<core::RuleSpec> primary,
                 const std::vector<std::vector<core::RuleSpec>>& extra,
                 u32 max_findings = 256) {
  os::Machine m;
  core::Options opts = hinted_options(img);
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
  // The primary binds no fetch rule, so on its own it elides the
  // hint-proven loop running from the file-tagged image. An extra set with
  // a tainted-fetch rule needs every fetch: the elision guard must look at
  // all sets, so the extra set sees exactly what it sees as a solo primary.
  const os::Image img = build_divu_loop();
  const std::vector<core::RuleSpec> builtins =
      core::builtin_rules(true, true, false);
  SetsRun plain = run_sets(img, builtins, {});
  ASSERT_GT(plain.metrics[obs::Ctr::kBtHintBlocks], 0u);
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
/// elidable opcodes (some with a constant-divisor kDivu), each ending in a
/// kSyscall, jmp, call or conditional branch to the next, then halt.
struct FootprintProgram {
  Assembler code;
  std::vector<std::string> divu_blocks;  // labels of blocks with a kDivu
  u8 buf_flow[kTaintBufBytes] = {};      // per byte: 0 clean, else a flow
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
    const u32 divu_at = pick(4) == 0 ? pick(body) : body;
    if (divu_at < body) p.divu_blocks.push_back(name);
    for (u32 k = 0; k < body; ++k) {
      if (k == divu_at) {
        const vm::Reg d = reg();
        a.movi(d, 1 + pick(100));
        a.divu(reg(), reg(), d);
        continue;
      }
      const vm::Reg rd = reg();
      const vm::Reg r1 = reg();
      const vm::Reg r2 = reg();
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

/// The analysis state both runs must agree on: register and memory
/// provenance, store size, engine stats, findings and per-rule tallies.
/// Provenance is compared by content: the two runs intern the same lists
/// but need not intern them in the same order.
struct FootprintOutcome {
  std::vector<std::vector<core::ProvTag>> regs;  // 16 registers x 4 bytes
  std::vector<std::pair<PAddr, std::vector<core::ProvTag>>> mem;
  size_t store_size = 0;
  core::EngineStats stats;
  std::vector<std::string> findings;
  std::vector<core::RuleStats> rule_stats;
  obs::MetricSnapshot metrics;
};

std::string tags_str(const core::ProvStore& store, core::ProvListId id) {
  std::string out;
  for (const core::ProvTag& t : store.get(id)) {
    out += std::to_string(t.key()) + ",";
  }
  return out;
}

FootprintOutcome run_footprint(const FootprintProgram& p, u32 seed,
                               bool block_cache, bool bind_rules) {
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
  // Hints for the kDivu blocks: their divisor is a nonzero constant set
  // right before, as the static analyzer would prove.
  auto blob = p.code.assemble(kCodeBase);
  EXPECT_TRUE(blob.ok());
  for (const std::string& label : p.divu_blocks) {
    const u32 off = p.code.label_offset(label).value();
    std::vector<Instruction> run;
    for (u32 o = off; o + vm::kInsnSize <= blob.value().size();
         o += vm::kInsnSize) {
      run.push_back(
          *vm::decode(ByteSpan(blob.value().data() + o, vm::kInsnSize)));
      if (vm::ends_block(run.back().op)) break;
    }
    opts.elide_hints[kCodeBase + off].emplace_back(
        static_cast<u32>(run.size()),
        vm::insn_seq_hash(run.data(), run.size()));
  }
  core::FarosEngine engine(osi, opts);
  env.interp.set_hooks(&engine);

  const FlowTuple flows[3] = {{0x0a000001, 4444, 0x0a000002, 5000},
                              {0x0a000003, 4445, 0x0a000002, 5001},
                              {0x0a000004, 4446, 0x0a000002, 5002}};
  for (u32 i = 0; i < kTaintBufBytes; ++i) {
    if (p.buf_flow[i] == 0) continue;
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kDataBase + i, 1},
        flows[p.buf_flow[i] - 1]);
  }
  if (p.code_taint != 0) {
    const u32 len = static_cast<u32>(blob.value().size());
    engine.on_packet_to_guest(
        osi::GuestXfer{osi.proc, &env.as, kCodeBase,
                       p.code_taint == 1 ? len : len / 2},
        flows[0]);
  }

  // Three passes under one seeded sequence of budget slices, so blocks
  // are also cut short and re-entered mid-way.
  std::mt19937 slices(seed * 7919u + 1);
  for (int pass = 0; pass < 3; ++pass) {
    env.cpu.set_pc(kCodeBase);
    for (;;) {
      StepInfo info = env.run(1 + slices() % 40);
      if (info.result == StepResult::kHalt) break;
      if (info.result == StepResult::kTrap) {
        ADD_FAILURE() << "seed " << seed << " trapped at " << info.pc;
        break;
      }
    }
  }

  FootprintOutcome out;
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
  for (const core::Finding& f : engine.findings()) {
    out.findings.push_back(f.policy + "@" + std::to_string(f.instr_index) +
                           ":" + std::to_string(f.insn_va) + " fetch=" +
                           tags_str(engine.store(), f.fetch_prov) +
                           " target=" +
                           tags_str(engine.store(), f.target_prov));
  }
  const core::RuleEngine& re = engine.rule_engine();
  for (u32 i = 0; i < re.rule_count(); ++i) {
    out.rule_stats.push_back(re.rule_stats(i));
  }
  out.metrics = engine.metrics_snapshot();
  return out;
}

TEST(BtCacheEngine, FootprintGuardMatchesUncachedPathOnRandomBlocks) {
  // Block cache on (footprint-guarded elision) and off (every instruction
  // through Table I) must end in the same analysis state, with the
  // syscall-arg and tainted-fetch rules unbound and bound.
  constexpr u32 kSeeds = 48;
  for (bool bind : {false, true}) {
    u64 elided = 0;
    obs::MetricSnapshot sum;
    for (u32 seed = 0; seed < kSeeds; ++seed) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " bind "
                                        << bind);
      const FootprintProgram p = random_footprint_program(seed);
      FootprintOutcome on = run_footprint(p, seed, true, bind);
      FootprintOutcome off = run_footprint(p, seed, false, bind);
      ASSERT_EQ(on.regs.size(), vm::kNumRegs * 4u);
      ASSERT_EQ(on.regs.size(), off.regs.size());
      for (size_t i = 0; i < on.regs.size(); ++i) {
        EXPECT_EQ(on.regs[i], off.regs[i])
            << "register r" << i / 4 << " byte " << i % 4;
      }
      EXPECT_EQ(on.mem, off.mem);
      EXPECT_EQ(on.store_size, off.store_size);
      EXPECT_EQ(on.stats.insns_seen, off.stats.insns_seen);
      EXPECT_EQ(on.stats.tainted_fetches, off.stats.tainted_fetches);
      EXPECT_EQ(on.stats.policy_evals, off.stats.policy_evals);
      EXPECT_EQ(on.findings, off.findings);
      expect_same_rule_stats(on.rule_stats, off.rule_stats);
      EXPECT_EQ(off.stats.elided_insns, 0u);
      elided += on.stats.elided_insns;
      for (u32 c = 0; c < obs::kCtrCount; ++c) {
        sum.counters[c] += on.metrics.counters[c];
      }
    }
    using obs::Ctr;
    // The workload must exercise every guard outcome, and the decline
    // reasons must add up to bt_guard_fail.
    EXPECT_GT(elided, 0u);
    EXPECT_GT(sum[Ctr::kBtDeclineTaintedRead], 0u);
    EXPECT_GT(sum[Ctr::kBtHintBlocks], 0u);
    EXPECT_EQ(sum[Ctr::kBtGuardFail], sum[Ctr::kBtDeclineTaintedRead] +
                                          sum[Ctr::kBtDeclineSyscallArg] +
                                          sum[Ctr::kBtDeclineFetchRule]);
    if (bind) {
      EXPECT_GT(sum[Ctr::kBtDeclineSyscallArg], 0u);
      EXPECT_GT(sum[Ctr::kBtDeclineFetchRule], 0u);
    } else {
      EXPECT_EQ(sum[Ctr::kBtDeclineSyscallArg], 0u);
      EXPECT_EQ(sum[Ctr::kBtDeclineFetchRule], 0u);
    }
  }
}

TEST(BtCacheEngine, SwappingPluginsForgetsWhatTheOldOneCachedOnBlocks) {
  // Hint verdicts and fetch memos on a TranslatedBlock belong to the
  // plugin that made them: an engine without hints attached to the same
  // interpreter must not elide the kDivu block its predecessor's hint
  // approved.
  CpuEnv env;
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
  std::vector<Instruction> body;
  for (u32 i = 0; i < 4; ++i) {
    body.push_back(*vm::decode(env.mem.span(
        *env.as.translate(loop + i * vm::kInsnSize, vm::AccessType::kExec,
                          true),
        vm::kInsnSize)));
  }
  core::Options hinted;
  hinted.elide_hints[loop].emplace_back(4, vm::insn_seq_hash(body.data(), 4));

  core::FarosEngine first(osi, hinted);
  env.interp.set_hooks(&first);
  env.run(4000);
  EXPECT_GT(first.stats().elided_insns, 3000u);

  core::FarosEngine second(osi, core::Options{});
  env.interp.set_hooks(&second);
  env.run(4000);
  EXPECT_EQ(second.stats().insns_seen, 4000u);
  EXPECT_EQ(second.stats().elided_insns, 0u);
  EXPECT_GT(env.interp.block_cache()->stats().not_offered, 900u);
}

TEST(BtCacheEngine, TwoProcessesOfOneIdleImageBothElideInSteadyState) {
  // Two NtYield spinners from one image, each idling with a tainted r5 it
  // never reads (an injected payload's shape). Every steady-state block —
  // the `movi r0; syscall` tail block and the jmp — must be elided in both
  // processes, with the tainted-fetch count answered from each block's own
  // memo: no per-instruction fetch work at all.
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
  EXPECT_EQ(delta(Ctr::kFetchCacheHit) + delta(Ctr::kFetchCacheMiss), 0u);
  EXPECT_EQ(delta(Ctr::kAppendMemoHit) + delta(Ctr::kAppendMemoMiss), 0u);
}

// --- detection equivalence over a corpus slice ---------------------------

std::vector<farm::JobSpec> slice_jobs() {
  std::vector<farm::JobSpec> jobs;
  auto add = [&](const std::vector<attacks::CorpusEntry>& es, size_t max_n) {
    for (size_t i = 0; i < es.size() && i < max_n; ++i) {
      farm::JobSpec spec;
      spec.name = es[i].name;
      spec.category = es[i].category;
      spec.expect_flagged = es[i].expect_flagged;
      spec.make = es[i].make;
      jobs.push_back(std::move(spec));
    }
  };
  // All injections (the attacks the cache must not hide) plus JIT/SMC
  // workloads (the payloads most hostile to the cache).
  add(attacks::injection_corpus(), ~size_t{0});
  add(attacks::jit_corpus(), 5);
  return jobs;
}

TEST(BtCacheFarm, VerdictStreamIsByteIdenticalCacheOnVsOff) {
  farm::FarmConfig on_cfg;
  on_cfg.workers = 2;

  farm::FarmConfig off_cfg;
  off_cfg.workers = 1;
  off_cfg.machine.kernel.block_cache = false;

  auto on = farm::Farm(on_cfg).run(slice_jobs());
  auto off = farm::Farm(off_cfg).run(slice_jobs());
  ASSERT_EQ(on.results.size(), off.results.size());
  for (size_t i = 0; i < on.results.size(); ++i) {
    EXPECT_EQ(on.results[i].status, farm::JobStatus::kOk)
        << on.results[i].name;
    EXPECT_EQ(farm::job_jsonl(on.results[i]), farm::job_jsonl(off.results[i]))
        << on.results[i].name;
  }
}

}  // namespace
}  // namespace faros
