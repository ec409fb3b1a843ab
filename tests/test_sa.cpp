// The static analyzer (src/sa): CFG recovery goldens (diamond, loop
// splitting, dead regions, escaping branches), the constant/taint-shape
// dataflow, indirect-target resolution via the analyzer fixpoint, and the
// corpus-wide decode property.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "attacks/corpus.h"
#include "sa/analyzer.h"

namespace faros {
namespace {

using sa::Cfg;
using sa::EdgeKind;
using vm::Reg;

constexpr u32 kBase = 0x00400000;

os::Image make_image(const std::function<void(vm::Assembler&)>& emit,
                     u32 base = kBase) {
  vm::Assembler a;
  emit(a);
  auto bytes = a.assemble(base);
  if (!bytes.ok()) ADD_FAILURE() << bytes.error().message;
  os::Image img;
  img.name = "t.exe";
  img.base_va = base;
  img.entry_offset = 0;
  img.blob = std::move(bytes).take();
  return img;
}

bool has_edge(const sa::BasicBlock& blk, u32 target, EdgeKind kind) {
  for (const auto& e : blk.succs) {
    if (e.target == target && e.kind == kind) return true;
  }
  return false;
}

// --- CFG recovery goldens ---------------------------------------------------

TEST(SaCfg, DiamondRecoversFourBlocksWithBranchAndFallEdges) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.cmpi(Reg::R1, 0);   // +0   entry block [+0, +16)
    a.beq("left");        // +8   taken -> left, fall -> right
    a.movi(Reg::R2, 1);   // +16  right block [+16, +32)
    a.jmp("join");        // +24
    a.label("left");
    a.movi(Reg::R2, 2);   // +32  left block [+32, +40), falls into join
    a.label("join");
    a.halt();             // +40  join block [+40, +48)
  });
  Cfg cfg = sa::recover_cfg(img);
  ASSERT_EQ(cfg.blocks.size(), 4u);
  ASSERT_TRUE(cfg.blocks.count(kBase));
  const auto& entry = cfg.blocks.at(kBase);
  EXPECT_EQ(entry.end, kBase + 16);
  EXPECT_TRUE(has_edge(entry, kBase + 32, EdgeKind::kTaken));
  EXPECT_TRUE(has_edge(entry, kBase + 16, EdgeKind::kFall));
  EXPECT_TRUE(has_edge(cfg.blocks.at(kBase + 16), kBase + 40, EdgeKind::kTaken));
  EXPECT_TRUE(has_edge(cfg.blocks.at(kBase + 32), kBase + 40, EdgeKind::kFall));
  EXPECT_TRUE(cfg.blocks.at(kBase + 40).succs.empty());
  EXPECT_EQ(cfg.insn_count, 6u);
  EXPECT_TRUE(cfg.indirects.empty());
  EXPECT_TRUE(cfg.dead_regions.empty());
}

TEST(SaCfg, LoopBackEdgeSplitsTheHeaderBlock) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.movi(Reg::R4, 0);      // +0
    a.label("loop");
    a.addi(Reg::R4, Reg::R4, 1);  // +8
    a.cmpi(Reg::R4, 10);          // +16
    a.blt("loop");                // +24  back edge into +8
    a.halt();                     // +32
  });
  Cfg cfg = sa::recover_cfg(img);
  // The branch back into the straight-line run must split it: [+0,+8) and
  // the loop body [+8,+32).
  ASSERT_TRUE(cfg.blocks.count(kBase));
  ASSERT_TRUE(cfg.blocks.count(kBase + 8));
  EXPECT_EQ(cfg.blocks.at(kBase).end, kBase + 8);
  EXPECT_TRUE(has_edge(cfg.blocks.at(kBase), kBase + 8, EdgeKind::kFall));
  const auto& body = cfg.blocks.at(kBase + 8);
  EXPECT_TRUE(has_edge(body, kBase + 8, EdgeKind::kTaken));   // back edge
  EXPECT_TRUE(has_edge(body, kBase + 32, EdgeKind::kFall));
}

TEST(SaCfg, UnreachableCodeShapedTailBecomesDeadRegion) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.halt();                          // +0: the only reachable insn
    a.movi(Reg::R1, 1);                // unreachable tail, code-shaped
    a.movi(Reg::R2, 2);
    a.add(Reg::R3, Reg::R1, Reg::R2);
    a.xor_(Reg::R5, Reg::R5, Reg::R5);
    a.ret();
  });
  Cfg cfg = sa::recover_cfg(img);
  EXPECT_EQ(cfg.blocks.size(), 1u);
  ASSERT_EQ(cfg.dead_regions.size(), 1u);
  const auto& r = cfg.dead_regions[0];
  EXPECT_EQ(r.start, kBase + 8);
  EXPECT_EQ(r.insns, 5u);
  EXPECT_EQ(r.non_nop, 5u);
  EXPECT_TRUE(r.has_terminator);
}

TEST(SaCfg, DirectBranchOutsideTheImageIsRecordedNotFollowed) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.label("start");
    a.jmp("beyond");
    a.label("beyond");  // label sits at the very end: target == image end
  });
  Cfg cfg = sa::recover_cfg(img);
  EXPECT_EQ(cfg.blocks.size(), 1u);
  ASSERT_EQ(cfg.escaping_targets.size(), 1u);
  EXPECT_EQ(cfg.escaping_targets[0], kBase + 8);
}

TEST(SaCfg, InvalidOpcodeStopsDescentAndIsRecorded) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.movi(Reg::R1, 7);  // +0
    a.data_u32(0xff);    // +8: opcode byte 0xff — undecodable
    a.data_u32(0);
  });
  Cfg cfg = sa::recover_cfg(img);
  ASSERT_EQ(cfg.blocks.size(), 1u);
  EXPECT_EQ(cfg.blocks.at(kBase).insns.size(), 1u);
  ASSERT_EQ(cfg.invalid_sites.size(), 1u);
  EXPECT_EQ(cfg.invalid_sites[0], kBase + 8);
}

// --- dataflow ---------------------------------------------------------------

TEST(SaDataflow, ConstantFoldingMirrorsInterpreterSemantics) {
  sa::RegState st = sa::RegState::all_varies();
  auto run = [&](vm::Opcode op, u8 rd, u8 rs1, u8 rs2, u32 imm) {
    sa::transfer(vm::Instruction{op, rd, rs1, rs2, imm}, kBase, st);
  };
  run(vm::Opcode::kMovi, Reg::R1, 0, 0, 10);
  run(vm::Opcode::kAddi, Reg::R2, Reg::R1, 0, 5);
  EXPECT_EQ(st.regs[Reg::R2].kind, sa::ValKind::kConst);
  EXPECT_EQ(st.regs[Reg::R2].c, 15u);
  // Shift counts mask to 5 bits, as in the CPU.
  run(vm::Opcode::kShli, Reg::R3, Reg::R1, 0, 33);
  EXPECT_EQ(st.regs[Reg::R3].c, 20u);
  // u32 wrap-around.
  run(vm::Opcode::kMovi, Reg::R4, 0, 0, 0xffffffff);
  run(vm::Opcode::kAddi, Reg::R5, Reg::R4, 0, 2);
  EXPECT_EQ(st.regs[Reg::R5].c, 1u);
  // xor r, r is the idiomatic clear even when r varies.
  run(vm::Opcode::kXor, Reg::R6, Reg::R7, Reg::R7, 0);
  EXPECT_EQ(st.regs[Reg::R6].kind, sa::ValKind::kConst);
  EXPECT_EQ(st.regs[Reg::R6].c, 0u);
  // Divide-by-zero traps at runtime; statically it is just "varies".
  run(vm::Opcode::kMovi, Reg::R8, 0, 0, 0);
  run(vm::Opcode::kDivu, Reg::R9, Reg::R1, Reg::R8, 0);
  EXPECT_EQ(st.regs[Reg::R9].kind, sa::ValKind::kVaries);
}

TEST(SaDataflow, LoadsAndSyscallsMarkValuesRuntimeDerived) {
  sa::RegState st = sa::RegState::all_varies();
  sa::transfer(vm::Instruction{vm::Opcode::kLd32, Reg::R1, Reg::R2, 0, 0},
               kBase, st);
  EXPECT_TRUE(st.regs[Reg::R1].from_load);
  sa::transfer(vm::Instruction{vm::Opcode::kSyscall, 0, 0, 0, 0}, kBase, st);
  EXPECT_TRUE(st.regs[Reg::R0].from_load);
  // The mark survives copies and arithmetic.
  sa::transfer(vm::Instruction{vm::Opcode::kMov, Reg::R3, Reg::R0, 0, 0},
               kBase, st);
  sa::transfer(vm::Instruction{vm::Opcode::kAddi, Reg::R4, Reg::R3, 0, 8},
               kBase, st);
  EXPECT_TRUE(st.regs[Reg::R4].from_load);
  // A fresh constant scrubs it.
  sa::transfer(vm::Instruction{vm::Opcode::kMovi, Reg::R3, 0, 0, 1}, kBase,
               st);
  EXPECT_FALSE(st.regs[Reg::R3].from_load);
}

TEST(SaAnalyzer, ResolvesMoviFedIndirectJumpInASecondPass) {
  os::Image img = make_image([](vm::Assembler& a) {
    a.movi_label(Reg::R1, "tgt");  // +0
    a.jr(Reg::R1);                 // +8
    a.label("tgt");
    a.halt();                      // +16
  });
  sa::ImageReport rep = sa::analyze_image(img);
  EXPECT_EQ(rep.indirect_sites, 1u);
  EXPECT_EQ(rep.resolved_indirects, 1u);
  EXPECT_GE(rep.passes, 2u);
  ASSERT_TRUE(rep.cfg.blocks.count(kBase + 16));
  ASSERT_EQ(rep.cfg.indirects.size(), 1u);
  EXPECT_TRUE(rep.cfg.indirects[0].resolved);
  EXPECT_EQ(rep.cfg.indirects[0].target, kBase + 16);
}

// --- corpus-wide properties -------------------------------------------------

TEST(SaCorpus, EveryProgramExtractsAndEveryReachedInsnDecodes) {
  u32 programs = 0, images = 0;
  for (const auto& e : attacks::full_corpus()) {
    auto sc = e.make();
    auto extracted = attacks::extract_images(*sc);
    ASSERT_TRUE(extracted.ok())
        << e.name << ": " << extracted.error().message;
    ASSERT_FALSE(extracted.value().empty()) << e.name;
    for (const auto& x : extracted.value()) {
      sa::ImageReport rep = sa::analyze_image(x.image);
      EXPECT_GT(rep.blocks, 0u) << e.name << "/" << x.image.name;
      // Every instruction inside a reached block must be a valid decode
      // whose bounds stay inside the image — descent may *stop* at data,
      // but can never swallow it into a block.
      for (const auto& [start, blk] : rep.cfg.blocks) {
        EXPECT_GE(start, x.image.base_va);
        EXPECT_LE(blk.end - x.image.base_va, x.image.blob.size());
        for (const auto& insn : blk.insns) {
          EXPECT_TRUE(vm::opcode_valid(static_cast<u8>(insn.op)))
              << e.name << "/" << x.image.name << " @ " << start;
        }
      }
      ++images;
    }
    ++programs;
  }
  EXPECT_EQ(programs, 135u);
  EXPECT_GE(images, programs);
}

}  // namespace
}  // namespace faros
