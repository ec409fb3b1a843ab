// Interprocedural summary analysis (PR 9): call-graph construction and SCC
// ordering, bottom-up function summaries, the SummaryCallModel vs the
// historical clobber-all call semantics, a soundness property test for
// sa::transfer against the concrete interpreter, block splitting at
// resolved indirect targets, multi-pass convergence, and the static
// verdict's confusion matrix pinned over the full corpus (faros_lint's
// lint_summary scores the same matrix).
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "attacks/corpus.h"
#include "sa/analyzer.h"
#include "sa/callgraph.h"
#include "sa/summary.h"
#include "vm/assembler.h"
#include "vm/cpu.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros {
namespace {

using sa::AbsVal;
using sa::CallGraph;
using sa::Cfg;
using sa::EdgeKind;
using sa::FuncSummary;
using sa::RegState;
using sa::SumKind;
using sa::SummaryCallModel;
using sa::SummaryTable;
using sa::SumVal;
using sa::ValKind;
using vm::Reg;

constexpr u32 kBase = 0x00400000;

os::Image image_of(const vm::Assembler& a, u32 base = kBase) {
  auto bytes = a.assemble(base);
  if (!bytes.ok()) ADD_FAILURE() << bytes.error().message;
  os::Image img;
  img.name = "t.exe";
  img.base_va = base;
  img.entry_offset = 0;
  img.blob = std::move(bytes).take();
  return img;
}

u32 scc_index_of(const CallGraph& cg, u32 entry) {
  for (u32 i = 0; i < cg.sccs.size(); ++i) {
    for (u32 e : cg.sccs[i]) {
      if (e == entry) return i;
    }
  }
  ADD_FAILURE() << "entry " << entry << " in no SCC";
  return ~0u;
}

// --- call graph -------------------------------------------------------------

TEST(SaCallGraph, DirectCallsYieldFunctionsAndCalleeFirstSccs) {
  vm::Assembler a;
  a.call("f");      // +0
  a.call("g");      // +8
  a.halt();         // +16
  a.label("f");     // +24
  a.movi(Reg::R1, 1);
  a.call("g");      // +32
  a.ret();          // +40
  a.label("g");     // +48
  a.movi(Reg::R2, 2);
  a.ret();
  os::Image img = image_of(a);

  Cfg cfg = sa::recover_cfg(img);
  CallGraph cg = sa::build_callgraph(cfg);
  const u32 f = kBase + 24, g = kBase + 48;
  ASSERT_EQ(cg.functions.size(), 3u);
  ASSERT_NE(cg.function_of(kBase), nullptr);
  ASSERT_NE(cg.function_of(f), nullptr);
  ASSERT_NE(cg.function_of(g), nullptr);

  const sa::Function& start = *cg.function_of(kBase);
  EXPECT_EQ(start.callees, (std::set<u32>{f, g}));
  EXPECT_FALSE(start.has_unresolved_call);
  ASSERT_EQ(start.call_sites.size(), 2u);
  EXPECT_EQ(start.call_sites[0].va, kBase + 0);
  EXPECT_EQ(start.call_sites[1].va, kBase + 8);
  EXPECT_TRUE(start.call_sites[0].resolved);
  EXPECT_EQ(start.call_sites[0].target, f);

  EXPECT_EQ(cg.function_of(f)->callees, (std::set<u32>{g}));
  EXPECT_TRUE(cg.function_of(g)->callees.empty());

  // Callee-first condensation: g before f before _start.
  EXPECT_LT(scc_index_of(cg, g), scc_index_of(cg, f));
  EXPECT_LT(scc_index_of(cg, f), scc_index_of(cg, kBase));
}

TEST(SaCallGraph, MutualRecursionCollapsesIntoOneScc) {
  vm::Assembler a;
  a.call("f");      // +0
  a.halt();         // +8
  a.label("f");     // +16
  a.call("g");
  a.ret();
  a.label("g");     // +32
  a.call("f");
  a.ret();
  os::Image img = image_of(a);

  CallGraph cg = sa::build_callgraph(sa::recover_cfg(img));
  const u32 f = kBase + 16, g = kBase + 32;
  ASSERT_EQ(cg.functions.size(), 3u);
  const u32 scc_f = scc_index_of(cg, f);
  EXPECT_EQ(scc_f, scc_index_of(cg, g));
  ASSERT_EQ(cg.sccs[scc_f].size(), 2u);
  // Members ascend by va; the recursive pair still precedes its caller.
  EXPECT_EQ(cg.sccs[scc_f], (std::vector<u32>{f, g}));
  EXPECT_LT(scc_f, scc_index_of(cg, kBase));
}

// --- function summaries -----------------------------------------------------

TEST(SaSummary, LeafOutEffectsConstAndPreservedParams) {
  vm::Assembler a;
  a.movi(Reg::R5, 7);  // +0
  a.call("f");         // +8
  a.add(Reg::R6, Reg::R5, Reg::R5);  // +16: needs R5 preserved across f
  a.halt();            // +24
  a.label("f");        // +32
  a.movi(Reg::R1, 1);
  a.ret();
  os::Image img = image_of(a);

  Cfg cfg = sa::recover_cfg(img);
  CallGraph cg = sa::build_callgraph(cfg);
  SummaryTable table = sa::compute_summaries(cfg, cg);
  const u32 f = kBase + 32;
  ASSERT_TRUE(table.count(f));
  const FuncSummary& s = table.at(f);
  EXPECT_TRUE(s.returns);
  EXPECT_FALSE(s.clobber_all);
  EXPECT_FALSE(s.can_store);
  EXPECT_FALSE(s.can_load);
  EXPECT_FALSE(s.can_syscall);
  EXPECT_TRUE(s.inert);
  EXPECT_EQ(s.out[Reg::R1], SumVal::konst(1));
  // A register f never touches reads back as the caller's own value.
  EXPECT_EQ(s.out[Reg::R5], SumVal::param(Reg::R5));
  EXPECT_TRUE(s.writes.empty());
  EXPECT_FALSE(s.writes_unknown);
}

TEST(SaSummary, StoreEffectsPropagateToCallersAsWriteFacts) {
  vm::Assembler a;
  a.call("w");       // +0
  a.halt();          // +8
  a.label("w");      // +16
  a.st32(Reg::R1, 0, Reg::R2);
  a.ret();
  os::Image img = image_of(a);

  Cfg cfg = sa::recover_cfg(img);
  SummaryTable table = sa::compute_summaries(cfg, sa::build_callgraph(cfg));
  const u32 w = kBase + 16;
  ASSERT_TRUE(table.count(w));
  const FuncSummary& s = table.at(w);
  EXPECT_TRUE(s.can_store);
  EXPECT_FALSE(s.inert);
  ASSERT_EQ(s.writes.size(), 1u);
  EXPECT_EQ(s.writes[0],
            (sa::WriteFact{sa::WriteFact::kParamRel, Reg::R1, 0}));

  // The caller inherits the may-store bit through the call edge.
  ASSERT_TRUE(table.count(kBase));
  EXPECT_TRUE(table.at(kBase).can_store);
  EXPECT_FALSE(table.at(kBase).inert);
}

TEST(SaSummary, CallModelPreservesConstantsClobberAllLoses) {
  vm::Assembler a;
  a.movi(Reg::R5, 7);  // +0
  a.call("f");         // +8
  a.add(Reg::R6, Reg::R5, Reg::R5);  // +16: post-call block
  a.halt();
  a.label("f");
  a.movi(Reg::R1, 1);
  a.ret();
  os::Image img = image_of(a);
  Cfg cfg = sa::recover_cfg(img);
  const u32 post = kBase + 16;

  // Historical semantics: the call clobbers every register.
  sa::DataflowResult clobbered = sa::run_dataflow(cfg, nullptr);
  ASSERT_TRUE(clobbered.block_in.count(post));
  EXPECT_NE(clobbered.block_in.at(post).regs[Reg::R5].kind, ValKind::kConst);

  // Summary semantics: f provably preserves R5 and returns R1 = 1.
  SummaryTable table = sa::compute_summaries(cfg, sa::build_callgraph(cfg));
  SummaryCallModel model(table);
  sa::DataflowResult sharp = sa::run_dataflow(cfg, &model);
  ASSERT_TRUE(sharp.block_in.count(post));
  const RegState& in = sharp.block_in.at(post);
  ASSERT_EQ(in.regs[Reg::R5].kind, ValKind::kConst);
  EXPECT_EQ(in.regs[Reg::R5].c, 7u);
  ASSERT_EQ(in.regs[Reg::R1].kind, ValKind::kConst);
  EXPECT_EQ(in.regs[Reg::R1].c, 1u);
}

TEST(SaSummary, UnresolvedCalleeFallsBackToClobberAll) {
  vm::Assembler a;
  a.movi(Reg::R5, 7);    // +0
  a.ld32(Reg::R3, Reg::R2);  // +8: opaque target
  a.callr(Reg::R3);      // +16
  a.add(Reg::R6, Reg::R5, Reg::R5);  // +24: post-call block
  a.halt();
  os::Image img = image_of(a);
  Cfg cfg = sa::recover_cfg(img);

  SummaryTable table = sa::compute_summaries(cfg, sa::build_callgraph(cfg));
  SummaryCallModel model(table);
  sa::DataflowResult df = sa::run_dataflow(cfg, &model);
  const u32 post = kBase + 24;
  ASSERT_TRUE(df.block_in.count(post));
  EXPECT_NE(df.block_in.at(post).regs[Reg::R5].kind, ValKind::kConst)
      << "an unresolved callr must not pretend to preserve registers";
}

// --- transfer soundness vs the concrete interpreter -------------------------

// Minimal concrete-execution harness (mirrors tests/test_vm_cpu.cpp).
struct CpuEnv {
  static constexpr u32 kCodeBase = 0x10000;
  static constexpr u32 kStackTop = 0x80000;

  vm::PhysMem mem{1u << 20};
  vm::FrameAllocator frames{0};
  vm::AddressSpace as;
  vm::Interpreter interp{mem};
  vm::CpuState cpu;

  CpuEnv() : frames(mem.num_frames()) {
    frames.reserve(0);
    as = vm::AddressSpace::create(mem, frames).value();
    EXPECT_TRUE(as.map_alloc(kStackTop - 0x2000, 0x2000,
                             vm::kPteUser | vm::kPteWrite)
                    .ok());
    cpu.regs[vm::SP] = kStackTop - 16;
  }

  void load(const vm::Assembler& a) {
    auto blob = a.assemble(kCodeBase);
    ASSERT_TRUE(blob.ok()) << blob.error().message;
    ASSERT_TRUE(as.map_alloc(kCodeBase, static_cast<u32>(blob.value().size()),
                             vm::kPteUser | vm::kPteWrite | vm::kPteExec)
                    .ok());
    ASSERT_TRUE(as.copy_in(kCodeBase, blob.value(), false).ok());
    cpu.set_pc(kCodeBase);
  }
};

TEST(SaTransferSoundness, RandomStraightLineProgramsNeverLieAboutConsts) {
  // Property: run sa::transfer and the interpreter over the same random
  // straight-line ALU program, instruction by instruction, from an
  // all-unknown abstract state. Whenever the abstract state claims a
  // register is kConst, the concrete register must hold exactly that
  // value — an abstract constant that diverges from the machine would
  // poison indirect resolution, summaries, and the elision proofs alike.
  std::mt19937 rng(0xfa405u);  // fixed seed: deterministic corpus
  const Reg pool[] = {Reg::R1, Reg::R2, Reg::R3, Reg::R4,
                      Reg::R5, Reg::R6, Reg::R7, Reg::R8};
  auto reg = [&] { return pool[rng() % (sizeof pool / sizeof pool[0])]; };

  for (int trial = 0; trial < 40; ++trial) {
    vm::Assembler a;
    for (int i = 0; i < 30; ++i) {
      const Reg rd = reg(), ra = reg(), rb = reg();
      switch (rng() % 12) {
        case 0: a.movi(rd, rng()); break;
        case 1: a.mov(rd, ra); break;
        case 2: a.add(rd, ra, rb); break;
        case 3: a.sub(rd, ra, rb); break;
        case 4: a.mul(rd, ra, rb); break;
        case 5: a.and_(rd, ra, rb); break;
        case 6: a.or_(rd, ra, rb); break;
        case 7: a.xor_(rd, ra, rb); break;
        case 8: a.shl(rd, ra, rb); break;
        case 9: a.shr(rd, ra, rb); break;
        case 10:
          a.addi(rd, ra, static_cast<i32>(rng() % 1024) - 512);
          break;
        case 11:
          // Guarded division: a fresh non-zero constant divisor, so the
          // concrete run cannot trap and the fold stays comparable.
          a.movi(Reg::R9, rng() % 255 + 1);
          a.divu(rd, ra, Reg::R9);
          break;
      }
    }
    a.halt();

    auto blob = a.assemble(CpuEnv::kCodeBase);
    ASSERT_TRUE(blob.ok()) << blob.error().message;
    const Bytes& bytes = blob.value();
    const u32 n_insns = static_cast<u32>(bytes.size()) / vm::kInsnSize;

    CpuEnv env;
    env.load(a);
    RegState st;  // all-unknown entry state: sound for any initial regs
    for (u32 i = 0; i + 1 < n_insns; ++i) {  // stop before the halt
      auto insn = vm::decode(
          ByteSpan(bytes.data() + i * vm::kInsnSize, vm::kInsnSize));
      ASSERT_TRUE(insn.has_value()) << "trial " << trial << " insn " << i;
      const u32 va = CpuEnv::kCodeBase + i * vm::kInsnSize;
      sa::transfer(*insn, va, st);
      auto info = env.interp.run(env.cpu, env.as, 1);
      ASSERT_NE(info.result, vm::StepResult::kTrap)
          << "trial " << trial << " insn " << i;
      for (u32 r = 0; r < vm::kNumRegs; ++r) {
        if (st.regs[r].kind != ValKind::kConst) continue;
        ASSERT_EQ(st.regs[r].c, env.cpu.regs[r])
            << "trial " << trial << " insn " << i << " reg " << r;
      }
    }
  }
}

// --- block splitting at resolved indirect targets ---------------------------

vm::Assembler midblock_jr_program() {
  vm::Assembler a;
  a.movi_label(Reg::R1, "mid");  // +0
  a.jmp("head");                 // +8
  a.label("head");               // +16
  a.addi(Reg::R2, Reg::R2, 1);
  a.label("mid");                // +24
  a.addi(Reg::R2, Reg::R2, 2);
  a.jr(Reg::R1);                 // +32
  return a;
}

TEST(SaCfgSplit, ResolvedIndirectTargetMidBlockSplitsOnInsnBoundary) {
  os::Image img = image_of(midblock_jr_program());
  const u32 head = kBase + 16, mid = kBase + 24, jr_va = kBase + 32;

  Cfg cfg = sa::recover_cfg(img, {{jr_va, mid}});
  ASSERT_TRUE(cfg.blocks.count(head));
  ASSERT_TRUE(cfg.blocks.count(mid));
  const sa::BasicBlock& h = cfg.blocks.at(head);
  EXPECT_EQ(h.end, mid);
  ASSERT_EQ(h.succs.size(), 1u);
  EXPECT_EQ(h.succs[0].target, mid);
  EXPECT_EQ(h.succs[0].kind, EdgeKind::kFall);
  const sa::BasicBlock& m = cfg.blocks.at(mid);
  ASSERT_EQ(m.insns.size(), 2u);
  ASSERT_EQ(cfg.indirects.size(), 1u);
  EXPECT_TRUE(cfg.indirects[0].resolved);
  EXPECT_EQ(cfg.indirects[0].target, mid);
  EXPECT_TRUE(cfg.invalid_sites.empty());
  // Every block boundary stays on an instruction boundary.
  for (const auto& [va, bb] : cfg.blocks) {
    EXPECT_EQ((va - kBase) % vm::kInsnSize, 0u);
    EXPECT_EQ((bb.end - kBase) % vm::kInsnSize, 0u);
  }
}

TEST(SaCfgSplit, MisalignedResolvedTargetIsRejectedNotSplit) {
  os::Image img = image_of(midblock_jr_program());
  const u32 jr_va = kBase + 32;
  const u32 misaligned = kBase + 28;  // mid-instruction

  Cfg cfg = sa::recover_cfg(img, {{jr_va, misaligned}});
  EXPECT_FALSE(cfg.blocks.count(misaligned));
  ASSERT_FALSE(cfg.invalid_sites.empty());
  EXPECT_NE(std::find(cfg.invalid_sites.begin(), cfg.invalid_sites.end(),
                      misaligned),
            cfg.invalid_sites.end());
  for (const auto& [va, bb] : cfg.blocks) {
    EXPECT_EQ((va - kBase) % vm::kInsnSize, 0u);
  }
}

TEST(SaCfgSplit, AnalyzerFixpointResolvesAndSplitsEndToEnd) {
  os::Image img = image_of(midblock_jr_program());
  sa::ImageReport rep = sa::analyze_image(img);
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.indirect_sites, 1u);
  EXPECT_EQ(rep.resolved_indirects, 1u);
  ASSERT_TRUE(rep.cfg.blocks.count(kBase + 24));
}

// --- multi-pass convergence -------------------------------------------------

vm::Assembler two_hop_hidden_program() {
  // hidden1 is reachable only through the first jr, hidden2 only through
  // the second: each analysis round uncovers exactly one more hop, so the
  // fixpoint needs three rounds (resolve, resolve, quiesce).
  vm::Assembler a;
  a.movi_label(Reg::R1, "hidden1");  // +0
  a.jr(Reg::R1);                     // +8
  a.label("hidden1");                // +16
  a.movi_label(Reg::R2, "hidden2");
  a.jr(Reg::R2);                     // +24
  a.label("hidden2");                // +32
  a.movi(Reg::R3, 0);
  a.halt();
  return a;
}

TEST(SaConvergence, TwoHopChainNeedsThreePassesAndConverges) {
  os::Image img = image_of(two_hop_hidden_program());
  sa::ImageReport rep = sa::analyze_image(img);  // default max_passes = 4
  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.passes, 3u);
  EXPECT_EQ(rep.indirect_sites, 2u);
  EXPECT_EQ(rep.resolved_indirects, 2u);
  ASSERT_TRUE(rep.cfg.blocks.count(kBase + 16));
  ASSERT_TRUE(rep.cfg.blocks.count(kBase + 32));
}

TEST(SaConvergence, PassBudgetExhaustionIsReportedNotMasked) {
  os::Image img = image_of(two_hop_hidden_program());
  sa::SaOptions opts;
  opts.max_passes = 1;
  sa::ImageReport one = sa::analyze_image(img, opts);
  EXPECT_FALSE(one.converged);
  EXPECT_EQ(one.passes, 1u);

  opts.max_passes = 2;
  sa::ImageReport two = sa::analyze_image(img, opts);
  EXPECT_FALSE(two.converged) << "resolution still progressing on the "
                                 "final round must not report converged";
  EXPECT_EQ(two.passes, 2u);
}

// --- full-corpus pins: static verdict matrix -------------------------------

TEST(SaCorpusPins, PrefilterMatrixAndPolicyAggregate) {
  // One sweep over all 135 corpus programs pins the static verdict's
  // confusion matrix: 11 TP / 0 FP / 122 TN / 2 FN, the two FNs being the
  // known low-risk injectors.
  u32 tp = 0, fp = 0, tn = 0, fn = 0;
  std::vector<std::string> fn_names;
  std::vector<os::Image> first_flagged;

  for (const auto& e : attacks::full_corpus()) {
    auto sc = e.make();
    auto extracted = attacks::extract_images(*sc);
    ASSERT_TRUE(extracted.ok()) << e.name << ": "
                                << extracted.error().message;
    std::vector<os::Image> images;
    for (auto& x : extracted.value()) images.push_back(std::move(x.image));

    sa::ProgramReport rep = sa::analyze_images(e.name, images);
    EXPECT_EQ(rep.risk_threshold, sa::kStaticRiskThreshold);
    if (rep.flagged() && first_flagged.empty()) first_flagged = images;
    if (e.expect_flagged) {
      if (rep.flagged()) ++tp;
      else { ++fn; fn_names.push_back(e.name); }
    } else {
      if (rep.flagged()) ++fp;
      else ++tn;
    }
  }

  EXPECT_EQ(tp, 11u);
  EXPECT_EQ(fp, 0u);
  EXPECT_EQ(tn, 122u);
  ASSERT_EQ(fn, 2u);
  for (const auto& n : fn_names) {
    EXPECT_TRUE(n.find("pulley") != std::string::npos ||
                n.find("collision") != std::string::npos)
        << "unexpected static FN: " << n;
  }

  // Satellite: the risk threshold is a real knob, not a constant.
  ASSERT_FALSE(first_flagged.empty());
  sa::SaOptions strict;
  strict.risk_threshold = 1'000'000;
  EXPECT_FALSE(sa::analyze_images("p", first_flagged, strict).flagged());
  sa::SaOptions loose;
  loose.risk_threshold = 1;
  EXPECT_TRUE(sa::analyze_images("p", first_flagged, loose).flagged());
}

}  // namespace
}  // namespace faros
