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
