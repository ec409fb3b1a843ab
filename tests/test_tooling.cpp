// Analyst tooling: the execution tracer (ring buffer, chaining, per-space
// counters) and the taint-map / finding-summary helpers.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/analyst.h"
#include "vm/tracer.h"

namespace faros {
namespace {

TEST(Tracer, RecordsRetiredInstructionsAndChains) {
  os::Machine m;
  vm::Tracer tracer(/*capacity=*/8);
  core::FarosEngine engine(m.kernel(), core::Options{});
  tracer.chain(&engine);
  m.attach_cpu_plugin(&tracer);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());

  os::ImageBuilder ib("t.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  for (int i = 0; i < 20; ++i) a.addi(vm::R1, vm::R1, 1);
  a.halt();
  auto img = ib.build();
  m.kernel().vfs().create("C:/t.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/t.exe");
  ASSERT_TRUE(pid.ok());
  PAddr cr3 = m.kernel().find(pid.value())->as.cr3();
  m.run(1000);

  EXPECT_EQ(tracer.total(), 21u);
  EXPECT_EQ(tracer.count_for(cr3), 21u);
  EXPECT_EQ(tracer.entries().size(), 8u);  // ring capacity respected
  EXPECT_EQ(tracer.entries().back().insn.op, vm::Opcode::kHalt);
  // The chained engine saw everything too.
  EXPECT_EQ(engine.stats().insns_seen, 21u);

  std::string dump = tracer.dump(4);
  EXPECT_NE(dump.find("halt"), std::string::npos);
  EXPECT_NE(dump.find("addi r1, r1, 1"), std::string::npos);

  tracer.clear();
  EXPECT_EQ(tracer.total(), 0u);
  EXPECT_TRUE(tracer.entries().empty());
}

TEST(Tracer, RecordsMemoryAccesses) {
  os::Machine m;
  vm::Tracer tracer;
  m.attach_cpu_plugin(&tracer);
  ASSERT_TRUE(m.boot().ok());
  os::ImageBuilder ib("mem.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi_label(vm::R1, "buf");
  a.movi(vm::R2, 5);
  a.st32(vm::R1, 0, vm::R2);
  a.ld32(vm::R3, vm::R1, 0);
  a.halt();
  a.align(8);
  a.label("buf");
  a.zeros(8);
  auto img = ib.build();
  m.kernel().vfs().create("C:/mem.exe", img.value().serialize());
  ASSERT_TRUE(m.kernel().spawn("C:/mem.exe").ok());
  m.run(1000);

  int writes = 0, reads = 0;
  for (const auto& e : tracer.entries()) {
    if (e.has_mem && e.mem_write) ++writes;
    if (e.has_mem && !e.mem_write) ++reads;
  }
  EXPECT_EQ(writes, 1);
  EXPECT_EQ(reads, 1);
}

TEST(Analyst, TaintedRegionsCoalesceByProvenance) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok());

  // Replayed under FAROS, the paper's offline workflow.
  attacks::Analysis a;
  ASSERT_TRUE(a.start(sc, &rec.value().log).ok());
  a.run(sc.budget());
  os::Machine& m = a.machine();
  const core::FarosEngine& engine = a.engine();

  // The victim holds a tainted injected region.
  os::Process* victim = m.kernel().find_by_name("notepad.exe");
  ASSERT_NE(victim, nullptr);
  const os::Region* injected = nullptr;
  for (const auto& r : victim->regions) {
    if (r.kind == os::Region::Kind::kAlloc) injected = &r;
  }
  ASSERT_NE(injected, nullptr);
  auto regions = core::tainted_regions(engine, victim->as, injected->base,
                                       injected->base + injected->len);
  ASSERT_FALSE(regions.empty());
  u32 total = 0;
  for (const auto& r : regions) {
    total += r.len;
    EXPECT_TRUE(engine.store().contains_type(r.prov,
                                             core::TagType::kNetflow));
  }
  EXPECT_GT(total, 100u);  // the payload body

  // The full map mentions the victim and a netflow chain.
  std::string map = core::taint_map(engine, m.kernel());
  EXPECT_NE(map.find("notepad.exe"), std::string::npos);
  EXPECT_NE(map.find("NetFlow"), std::string::npos);

  auto summary = core::summarize_findings(engine.findings());
  EXPECT_GT(summary.total, 0u);
  EXPECT_EQ(summary.whitelisted, 0u);
  EXPECT_GT(summary.by_policy.count("netflow-export-confluence"), 0u);
  EXPECT_GT(summary.by_process.count("notepad.exe"), 0u);
  std::string rendered = core::render_summary(summary);
  EXPECT_NE(rendered.find("netflow-export-confluence"), std::string::npos);
}

TEST(Analyst, TaintedRegionsRespectsLimitsAndGaps) {
  os::Machine m;
  core::Options opts;
  opts.taint_mapped_images = false;
  core::FarosEngine engine(m.kernel(), opts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());
  os::ImageBuilder ib("g.exe", os::kUserImageBase);
  ib.asm_().label("_start");
  ib.asm_().halt();
  ib.asm_().zeros(64);
  auto img = ib.build();
  m.kernel().vfs().create("C:/g.exe", img.value().serialize());
  auto pid = m.kernel().spawn("C:/g.exe", /*suspended=*/true);
  os::Process* p = m.kernel().find(pid.value());

  // Two tainted runs separated by a gap.
  FlowTuple flow{1, 2, 3, 4};
  osi::GuestXfer x1{p->info(), &p->as, os::kUserImageBase + 16, 4};
  osi::GuestXfer x2{p->info(), &p->as, os::kUserImageBase + 32, 4};
  engine.on_packet_to_guest(x1, flow);
  engine.on_packet_to_guest(x2, flow);

  auto regions = core::tainted_regions(engine, p->as, os::kUserImageBase,
                                       os::kUserImageBase + 64);
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].start, os::kUserImageBase + 16);
  EXPECT_EQ(regions[0].len, 4u);
  EXPECT_EQ(regions[1].start, os::kUserImageBase + 32);

  // max_regions cap.
  auto capped = core::tainted_regions(engine, p->as, os::kUserImageBase,
                                      os::kUserImageBase + 64, 1);
  EXPECT_EQ(capped.size(), 1u);
}

}  // namespace
}  // namespace faros
