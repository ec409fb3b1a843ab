// Atom-table syscalls and the atom-bombing scenario: payload staged in
// kernel-resident storage, no cross-process memory write, still flagged
// with the full provenance chain.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "core/report.h"
#include "os/machine.h"

namespace faros {
namespace {

using attacks::emit_sys;
using os::ImageBuilder;
using os::Sys;
using vm::Reg;

TEST(AtomTable, AddAndGetRoundTripAcrossProcesses) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());

  // Writer stores "ATOMDATA", then exits with the atom id.
  ImageBuilder wb("writer.exe", os::kUserImageBase);
  {
    auto& a = wb.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "data");
    a.movi(Reg::R2, 8);
    emit_sys(a, Sys::kNtAddAtom);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("data");
    a.data_str("ATOMDATA", false);
  }
  m.kernel().vfs().create("C:/w.exe", wb.build().value().serialize());
  auto wpid = m.kernel().spawn("C:/w.exe");
  ASSERT_TRUE(wpid.ok());
  m.run(10000);
  u32 atom = m.kernel().find(wpid.value())->exit_code;
  EXPECT_GE(atom, 0xc000u);

  // Reader fetches it by id and prints it.
  ImageBuilder rb("reader.exe", os::kUserImageBase);
  {
    auto& a = rb.asm_();
    a.label("_start");
    a.movi(Reg::R1, atom);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 64);
    emit_sys(a, Sys::kNtGetAtom);
    a.mov(Reg::R12, Reg::R0);
    a.movi_label(Reg::R1, "buf");
    a.mov(Reg::R2, Reg::R12);
    emit_sys(a, Sys::kNtDebugPrint);
    a.mov(Reg::R1, Reg::R12);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("buf");
    a.zeros(64);
  }
  m.kernel().vfs().create("C:/r.exe", rb.build().value().serialize());
  auto rpid = m.kernel().spawn("C:/r.exe");
  ASSERT_TRUE(rpid.ok());
  m.run(10000);
  EXPECT_EQ(m.kernel().find(rpid.value())->exit_code, 8u);
  ASSERT_FALSE(m.kernel().console().empty());
  EXPECT_EQ(m.kernel().console().back(), "reader.exe: ATOMDATA");
}

TEST(AtomTable, BadRequestsFail) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  ImageBuilder ib("bad.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  // Get a nonexistent atom.
  a.movi(Reg::R1, 0x9999);
  a.movi_label(Reg::R2, "buf");
  a.movi(Reg::R3, 8);
  emit_sys(a, Sys::kNtGetAtom);
  a.mov(Reg::R11, Reg::R0);
  // Add with zero length.
  a.movi_label(Reg::R1, "buf");
  a.movi(Reg::R2, 0);
  emit_sys(a, Sys::kNtAddAtom);
  a.add(Reg::R1, Reg::R11, Reg::R0);
  emit_sys(a, Sys::kNtExit);
  a.align(8);
  a.label("buf");
  a.zeros(8);
  m.kernel().vfs().create("C:/bad.exe", ib.build().value().serialize());
  auto pid = m.kernel().spawn("C:/bad.exe");
  ASSERT_TRUE(pid.ok());
  m.run(10000);
  EXPECT_EQ(m.kernel().find(pid.value())->exit_code,
            2 * os::kNtError);
}

// The table holds 4096 atoms: a guest adding in a loop is refused from the
// 4097th on, and the atoms it already added stay readable.
TEST(AtomTable, FullTableRefusesAddsAndKeepsItsAtoms) {
  constexpr u32 kCapacity = 4096;
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  ImageBuilder ib("filler.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi(Reg::R10, 0);  // atoms added; each one's payload is its index
  a.label("add");
  a.movi_label(Reg::R1, "data");
  a.st32(Reg::R1, 0, Reg::R10);
  a.movi(Reg::R2, 4);
  emit_sys(a, Sys::kNtAddAtom);
  a.cmpi(Reg::R0, static_cast<i32>(os::kNtError));
  a.beq("full");
  a.mov(Reg::R9, Reg::R0);  // the last atom added
  a.addi(Reg::R10, Reg::R10, 1);
  a.cmpi(Reg::R10, 2 * kCapacity);
  a.blt("add");
  a.label("full");
  a.movi_label(Reg::R1, "data");  // one more add, refused as well
  a.movi(Reg::R2, 4);
  emit_sys(a, Sys::kNtAddAtom);
  a.mov(Reg::R8, Reg::R0);
  a.movi(Reg::R1, 0xc000);  // the first atom
  a.movi_label(Reg::R2, "first");
  a.movi(Reg::R3, 4);
  emit_sys(a, Sys::kNtGetAtom);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R9);
  a.movi_label(Reg::R2, "last");
  a.movi(Reg::R3, 4);
  emit_sys(a, Sys::kNtGetAtom);
  a.movi_label(Reg::R1, "res");
  a.st32(Reg::R1, 0, Reg::R10);
  a.st32(Reg::R1, 4, Reg::R8);
  a.st32(Reg::R1, 8, Reg::R7);
  a.st32(Reg::R1, 12, Reg::R0);
  a.st32(Reg::R1, 16, Reg::R9);
  a.label("spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("spin");
  a.align(8);
  a.label("data");
  a.zeros(4);
  a.label("first");
  a.zeros(4);
  a.label("last");
  a.zeros(4);
  a.label("res");
  a.zeros(20);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/filler.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/filler.exe");
  ASSERT_TRUE(pid.ok());
  m.run(200000);

  os::Process* p = m.kernel().find(pid.value());
  ASSERT_NE(p, nullptr);
  auto word = [&](const char* label, u32 off) {
    const VAddr va =
        os::kUserImageBase + ib.asm_().label_offset(label).value() + off;
    u8 b[4] = {};
    EXPECT_TRUE(p->as.copy_out(va, b, false).ok());
    return static_cast<u32>(b[0]) | (static_cast<u32>(b[1]) << 8) |
           (static_cast<u32>(b[2]) << 16) | (static_cast<u32>(b[3]) << 24);
  };
  EXPECT_EQ(word("res", 0), kCapacity);              // adds that succeeded
  EXPECT_EQ(word("res", 4), os::kNtError);           // the add past them
  EXPECT_EQ(word("res", 8), 4u);                     // first atom: read
  EXPECT_EQ(word("first", 0), 0u);                   // ... its payload
  EXPECT_EQ(word("res", 16), 0xc000u + kCapacity - 1);
  EXPECT_EQ(word("res", 12), 4u);                    // last atom: read
  EXPECT_EQ(word("last", 0), kCapacity - 1);         // ... its payload
}

TEST(AtomBombing, FlaggedWithFullChainAndNoCrossProcessWrite) {
  attacks::AtomBombingScenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& r = run.value();

  bool announced = false;
  for (const auto& line : r.recorded.console) {
    if (line.find("atom-bombed payload in winlogon.exe") !=
        std::string::npos) {
      announced = true;
    }
  }
  EXPECT_TRUE(announced);
  EXPECT_TRUE(r.recorded.traps.empty()) << r.recorded.traps[0];
  ASSERT_TRUE(r.flagged) << r.report;

  // Chain: C2 netflow -> atom_bomber.exe -> winlogon.exe, carried through
  // the atom table (no NtWriteVirtualMemory anywhere in the run).
  EXPECT_NE(r.report.find("NetFlow"), std::string::npos);
  EXPECT_NE(r.report.find("atom_bomber.exe"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("winlogon.exe"), std::string::npos) << r.report;
  bool netflow_policy = false;
  for (const auto& f : r.findings) {
    if (f.policy == "netflow-export-confluence") netflow_policy = true;
  }
  EXPECT_TRUE(netflow_policy);
}

}  // namespace
}  // namespace faros
