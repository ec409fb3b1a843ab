// Extension features beyond the paper's minimal evaluation:
//  * IAT tagging — loader-resolved import pointers carry the export-table
//    tag (Section V-B: "any pointers ... will likely have been derived ...
//    from the kernel's export tables"), defeating IAT-scan evasion.
//  * Dropper chain — provenance survives a round trip through the file
//    system (Figure 4's full byte lifecycle), so a downloaded, dropped and
//    re-executed stage 2 still carries its netflow origin.
//  * Control-dependency laundering as a *whole attack* — the documented
//    evasion that FAROS (like all DIFT) cannot flag.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "core/engine.h"
#include "core/report.h"
#include "os/runtime.h"

namespace faros {
namespace {

using attacks::emit_sys;
using os::ImageBuilder;
using os::kUserImageBase;
using os::Sys;
using vm::Reg;

constexpr FlowTuple kFlow{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};

TEST(IatTagging, LoaderResolvedSlotsCarryExportTag) {
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());

  ImageBuilder ib("imports.exe", kUserImageBase);
  ib.import_symbol(os::sym::kUser32, os::sym::kMessageBox, "iat_mb");
  auto& a = ib.asm_();
  a.label("_start");
  a.label("spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("spin");
  a.align(8);
  a.label("iat_mb");
  a.data_u32(0);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/imports.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/imports.exe");
  ASSERT_TRUE(pid.ok());
  os::Process* p = m.kernel().find(pid.value());

  VAddr slot = kUserImageBase + ib.asm_().label_offset("iat_mb").value();
  core::ProvListId id = engine.prov_at(p->as, slot);
  ASSERT_NE(id, core::kEmptyProv);
  EXPECT_TRUE(engine.store().contains_type(id, core::TagType::kExportTable));
  // Layered on the image's file tag, not replacing it.
  EXPECT_TRUE(engine.store().contains_type(id, core::TagType::kFile));
}

TEST(IatTagging, IatScanningEvasionIsStillFlagged) {
  // Injected (network-tainted) code avoids the export tables and instead
  // reads the victim's already-resolved IAT slot. The slot's bytes are
  // derived from export tables and carry the tag: confluence still fires.
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());

  ImageBuilder ib("evader.exe", kUserImageBase);
  ib.import_symbol(os::sym::kUser32, os::sym::kMessageBox, "iat_mb");
  auto& a = ib.asm_();
  a.label("_start");
  a.movi_label(Reg::R1, "iat_mb");
  a.ld32(Reg::R9, Reg::R1, 0);  // IAT scan instead of export walk
  a.movi_label(Reg::R1, "msg");
  a.movi(Reg::R2, 6);
  a.callr(Reg::R9);
  a.label("spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("spin");
  a.align(8);
  a.label("iat_mb");
  a.data_u32(0);
  a.label("msg");
  a.data_str("evaded", false);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/evader.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/evader.exe", /*suspended=*/true);
  ASSERT_TRUE(pid.ok());
  os::Process* p = m.kernel().find(pid.value());

  // Simulate the injection: the program's *code* arrived from the network
  // (the IAT slot itself is loader-written data, not part of the payload).
  u32 code_len = ib.asm_().label_offset("iat_mb").value();
  osi::GuestXfer xfer{p->info(), &p->as, kUserImageBase, code_len};
  engine.on_packet_to_guest(xfer, kFlow);

  p->state = os::ProcState::kReady;
  m.run(50'000);
  ASSERT_FALSE(m.kernel().console().empty());
  EXPECT_EQ(m.kernel().console()[0], "evader.exe: evaded");
  EXPECT_TRUE(engine.flagged()) << "IAT scan must still hit the confluence";
  bool netflow_policy = false;
  for (const auto& f : engine.findings()) {
    if (f.policy == "netflow-export-confluence") netflow_policy = true;
  }
  EXPECT_TRUE(netflow_policy);
}

TEST(DropperChain, ProvenanceSurvivesDiskRoundTrip) {
  attacks::DropperChainScenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& r = run.value();

  // Stage 2 actually ran.
  bool announced = false;
  for (const auto& line : r.recorded.console) {
    if (line.find("stage two alive!") != std::string::npos) announced = true;
  }
  EXPECT_TRUE(announced);
  EXPECT_TRUE(r.recorded.traps.empty()) << r.recorded.traps[0];

  // Flagged, and the chain spans network -> dropper -> file -> stage 2.
  ASSERT_TRUE(r.flagged) << r.report;
  EXPECT_NE(r.report.find("NetFlow"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("dropper.exe"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("C:/Temp/update.exe"), std::string::npos)
      << r.report;
  EXPECT_NE(r.report.find("Process: update.exe"), std::string::npos)
      << r.report;
  // Chronology: the netflow tag comes first in the chain.
  size_t nf = r.report.find("NetFlow");
  size_t dr = r.report.find("dropper.exe");
  size_t fl = r.report.find("C:/Temp/update.exe");
  EXPECT_LT(nf, dr);
  EXPECT_LT(dr, fl);
}

TEST(Evasion, ControlDependencyLaunderingDefeatsDetection) {
  // A dedicated attacker copies the downloaded payload bit by bit through
  // branches (paper Section VI-D's example) before executing it: no data
  // flow reaches the executed bytes, so FAROS — by design — cannot flag.
  // This test documents the limitation (and fails loudly if propagation
  // ever silently changes).
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());

  ImageBuilder ib("launder.exe", kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  // Copy "src" (64 bytes, network tainted) to "dst" bit by bit via
  // control flow, then execute dst... here we only check the taint state
  // of dst; executing it would be the payload step.
  a.movi_label(Reg::R1, "src");
  a.movi_label(Reg::R2, "dst");
  a.movi(Reg::R3, 0);  // byte index
  a.label("bytes");
  a.cmpi(Reg::R3, 64);
  a.bgeu("done");
  a.add(Reg::R4, Reg::R1, Reg::R3);
  a.ld8(Reg::R5, Reg::R4, 0);  // tainted input byte
  a.movi(Reg::R6, 0);          // rebuilt output byte
  a.movi(Reg::R7, 1);          // bit mask
  a.label("bits");
  a.cmpi(Reg::R7, 256);
  a.bgeu("bits_done");
  a.and_(Reg::R8, Reg::R5, Reg::R7);
  a.cmpi(Reg::R8, 0);
  a.beq("skip");
  a.or_(Reg::R6, Reg::R6, Reg::R7);
  a.label("skip");
  a.shli(Reg::R7, Reg::R7, 1);
  a.jmp("bits");
  a.label("bits_done");
  a.add(Reg::R4, Reg::R2, Reg::R3);
  a.st8(Reg::R4, 0, Reg::R6);
  a.addi(Reg::R3, Reg::R3, 1);
  a.jmp("bytes");
  a.label("done");
  a.label("spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("spin");
  a.align(8);
  a.label("src");
  a.zeros(64);
  a.label("dst");
  a.zeros(64);
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  m.kernel().vfs().create("C:/launder.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/launder.exe", /*suspended=*/true);
  ASSERT_TRUE(pid.ok());
  os::Process* p = m.kernel().find(pid.value());

  VAddr src = kUserImageBase + ib.asm_().label_offset("src").value();
  VAddr dst = kUserImageBase + ib.asm_().label_offset("dst").value();
  osi::GuestXfer xfer{p->info(), &p->as, src, 64};
  engine.on_packet_to_guest(xfer, kFlow);

  p->state = os::ProcState::kReady;
  m.run(200'000);

  // The copy succeeded, but dst carries no taint: the laundering worked.
  for (u32 i = 0; i < 64; ++i) {
    ASSERT_EQ(engine.prov_at(p->as, dst + i), core::kEmptyProv) << i;
  }
  EXPECT_FALSE(engine.flagged());
}


TEST(EarlyWarning, TaintedCodeWritePolicyFiresAtStagingTime) {
  // The optional store-side policy flags the *write* of network bytes into
  // executable memory — before the payload ever executes — at the cost of
  // also flagging JIT hosts (why it is off by default).
  core::Options opts;
  opts.rules = core::builtin_rules(true, true, /*tainted_code_write=*/true);
  attacks::ReflectiveDllScenario sc(
      attacks::ReflectiveVariant::kReverseTcpDns);
  auto run = attacks::analyze(sc, opts);
  ASSERT_TRUE(run.ok()) << run.error().message;
  ASSERT_TRUE(run.value().flagged);

  u64 staging_at = 0, confluence_at = 0;
  for (const auto& f : run.value().findings) {
    if (f.policy == "tainted-code-write" && staging_at == 0) {
      staging_at = f.instr_index;
      EXPECT_EQ(f.proc.name, "inject_client.exe");
    }
    if (f.policy == "netflow-export-confluence" && confluence_at == 0) {
      confluence_at = f.instr_index;
    }
  }
  ASSERT_NE(staging_at, 0u) << run.value().report;
  ASSERT_NE(confluence_at, 0u);
  EXPECT_LT(staging_at, confluence_at)
      << "staging must be flagged before execution-time confluence";

  // ...and the price: the benign-compute JIT workload now trips it too.
  attacks::JitScenario jit("acceleration", "java.exe", /*linking=*/false);
  auto jit_run = attacks::analyze(jit, opts);
  ASSERT_TRUE(jit_run.ok());
  EXPECT_TRUE(jit_run.value().flagged)
      << "expected the documented FP cost of the early-warning policy";
}

TEST(IsaNames, EveryValidOpcodeHasADistinctNonNullName) {
  // Disassembly, and through it every finding's disasm field, keys on
  // opcode_name(); a missing or duplicated mnemonic would silently corrupt
  // it.
  std::set<std::string> seen;
  u32 valid = 0;
  for (u32 b = 0; b < 256; ++b) {
    if (!vm::opcode_valid(static_cast<u8>(b))) continue;
    ++valid;
    const char* name = vm::opcode_name(static_cast<vm::Opcode>(b));
    ASSERT_NE(name, nullptr) << "opcode 0x" << std::hex << b;
    EXPECT_FALSE(std::string(name).empty()) << "opcode 0x" << std::hex << b;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate mnemonic '" << name << "' at opcode 0x" << std::hex
        << b;
  }
  EXPECT_GE(valid, 40u);  // the ISA defines 40+ opcodes; all must be named
}

}  // namespace
}  // namespace faros
