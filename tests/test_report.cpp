// Report rendering: Table II text, detail blocks with code windows, and
// the JSON export.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/report.h"

namespace faros::core {
namespace {

TEST(Report, ChainRendering) {
  ProvStore store;
  TagMaps maps;
  u16 nf = maps.netflow.intern(FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162});
  u16 pr = maps.process.add(0x1000, 7, "evil.exe");
  auto id = store.intern({ProvTag::netflow(nf), ProvTag::process(pr),
                          ProvTag::export_table()});
  std::string chain = render_chain(store, maps, id);
  EXPECT_EQ(chain,
            "NetFlow: {src ip,port: 169.254.26.161:4444, dest ip,port: "
            "169.254.57.168:49162} ->Process: evil.exe ->ExportTable");
  EXPECT_EQ(render_chain(store, maps, kEmptyProv), "(untainted)");
}

TEST(Report, FindingsTableMarksWhitelisted) {
  ProvStore store;
  TagMaps maps;
  Finding f;
  f.insn_va = 0x20000000;
  f.fetch_prov = store.intern({ProvTag::export_table()});
  f.whitelisted = true;
  std::string table = render_findings_table({f}, store, maps);
  EXPECT_NE(table.find("0x20000000"), std::string::npos);
  EXPECT_NE(table.find("[whitelisted]"), std::string::npos);
}

TEST(Report, CodeWindowMarksFlaggedInstruction) {
  Finding f;
  f.code_base = 0x1000;
  f.insn_va = 0x1008;
  vm::Assembler a;
  a.nop();
  a.ld32(vm::R0, vm::R1, 4);
  a.ret();
  auto blob = a.assemble(0x1000);
  ASSERT_TRUE(blob.ok());
  f.code_window = blob.value();
  std::string text = render_code_window(f);
  EXPECT_NE(text.find("=> 0x00001008  ld32 r0, [r1+4]"), std::string::npos);
  EXPECT_NE(text.find("   0x00001000  nop"), std::string::npos);
}

TEST(Report, JsonExportIsWellFormedish) {
  ProvStore store;
  TagMaps maps;
  u16 pr = maps.process.add(0x1000, 7, "bad\"guy.exe");
  Finding f;
  f.policy = "netflow-export-confluence";
  f.proc.name = "bad\"guy.exe";
  f.proc.pid = 7;
  f.insn_va = 0x2000;
  f.disasm = "ld32 r0, [r1+4]";
  f.fetch_prov = store.intern({ProvTag::process(pr)});
  std::string json = render_findings_json({f, f}, store, maps);
  // Quotes escaped, both entries present, array brackets balanced.
  EXPECT_NE(json.find("bad\\\"guy.exe"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'), 2);
  EXPECT_EQ(std::count(json.begin(), json.end(), '}'), 2);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"policy\":\"netflow-export-confluence\""),
            std::string::npos);
  EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
}

TEST(Report, RealFindingCarriesCodeWindowSurvivingWipe) {
  // The transient reflective attack erases its payload after acting; the
  // finding's snapshot must still show the flagged export-table read.
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter,
                                    /*transient=*/true);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  ASSERT_TRUE(run.value().flagged);
  const Finding& f = run.value().findings[0];
  ASSERT_FALSE(f.code_window.empty());
  std::string text = render_code_window(f);
  EXPECT_NE(text.find("=>"), std::string::npos);
  EXPECT_NE(text.find("ld32"), std::string::npos);
}

}  // namespace
}  // namespace faros::core
