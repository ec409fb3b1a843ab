// CuckooBox + malfind baseline: traces collected, resident injections found
// by malfind, transient injections missed (the paper's Section VI-B), and
// never any provenance.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "baselines/cuckoo.h"
#include "baselines/report.h"

namespace faros::baselines {
namespace {

/// Runs a scenario live with the Cuckoo monitor attached (like the real
/// sandbox), then takes the end-of-run memory dump.
struct SandboxedRun {
  CuckooSandboxSim cuckoo;
  MemoryDump dump;
  os::RunStats stats;
};

void sandbox(attacks::Scenario& sc, SandboxedRun& out) {
  os::Machine m;
  m.add_monitor(&out.cuckoo);
  auto r = m.boot();
  ASSERT_TRUE(r.ok()) << r.error().message;
  auto source = sc.make_source();
  if (source) m.set_event_source(source.get());
  r = sc.setup(m);
  ASSERT_TRUE(r.ok()) << r.error().message;
  out.stats = m.run(sc.budget());
  out.dump = CuckooSandboxSim::take_memory_dump(m.kernel());
}

TEST(Cuckoo, CollectsSyscallFileAndNetworkTraces) {
  attacks::BehaviorScenario sc("trace-sample.exe",
                               {attacks::Behavior::kUpload,
                                attacks::Behavior::kDownload});
  SandboxedRun run;
  sandbox(sc, run);

  EXPECT_FALSE(run.cuckoo.syscalls().empty());
  bool saw_send = false, saw_recv = false;
  for (const auto& s : run.cuckoo.syscalls()) {
    if (s.name == std::string("NtSend")) saw_send = true;
    if (s.name == std::string("NtRecv")) saw_recv = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);

  bool read_secret = false, wrote_download = false;
  for (const auto& f : run.cuckoo.files()) {
    if (f.op == "read" && f.path == attacks::paths::kSecretDoc) {
      read_secret = true;
    }
    if (f.op == "write" && f.path == "C:/Temp/download.bin") {
      wrote_download = true;
    }
  }
  EXPECT_TRUE(read_secret);
  EXPECT_TRUE(wrote_download);

  bool outbound = false, inbound = false;
  for (const auto& n : run.cuckoo.netflows()) {
    outbound |= n.outbound;
    inbound |= !n.outbound;
  }
  EXPECT_TRUE(outbound);
  EXPECT_TRUE(inbound);
  EXPECT_EQ(run.cuckoo.registered_dlls().size(), 3u);  // ntdll, user32, kernel32
}

TEST(Cuckoo, BehavioralVerdictMissesInMemoryInjection) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  SandboxedRun run;
  sandbox(sc, run);
  // The injection happened (payload printed from the victim), yet no DLL
  // registration, no dropped executable: event-based detection is blind.
  EXPECT_FALSE(run.cuckoo.behavioral_verdict());
}

TEST(Malfind, FindsResidentInjectedRegion) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter,
                                    /*transient=*/false);
  SandboxedRun run;
  sandbox(sc, run);
  auto hits = malfind(run.dump);
  ASSERT_FALSE(hits.empty());
  bool in_victim = false;
  for (const auto& h : hits) {
    if (h.proc == "notepad.exe") in_victim = true;
  }
  EXPECT_TRUE(in_victim);
}

TEST(Malfind, MissesTransientInjection) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter,
                                    /*transient=*/true);
  SandboxedRun run;
  sandbox(sc, run);
  // The payload wiped itself before the dump: nothing left to find in the
  // victim. (The wipe loop itself survives but is below any useful
  // threshold of the original payload body.)
  auto hits = malfind(run.dump, /*min_live_bytes=*/128);
  for (const auto& h : hits) {
    EXPECT_NE(h.proc, "notepad.exe")
        << "transient payload should be invisible, found " << h.live_bytes
        << " live bytes";
  }
}

TEST(Malfind, CleanProcessHasNoHits) {
  attacks::BehaviorScenario sc("clean.exe", {attacks::Behavior::kIdle});
  SandboxedRun run;
  sandbox(sc, run);
  EXPECT_TRUE(malfind(run.dump).empty());
}

TEST(Volatility, PslistAndVadinfo) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  SandboxedRun run;
  sandbox(sc, run);
  auto procs = pslist(run.dump);
  ASSERT_GE(procs.size(), 2u);
  bool saw_victim = false;
  u32 victim_pid = 0;
  for (const auto& pd : run.dump.processes) {
    if (pd.proc.name == "notepad.exe") {
      saw_victim = true;
      victim_pid = pd.proc.pid;
    }
  }
  ASSERT_TRUE(saw_victim);
  auto regions = vadinfo(run.dump, victim_pid);
  // image + stack + the injected RWX allocation.
  ASSERT_GE(regions.size(), 3u);
  bool has_private_exec = false;
  for (const auto& r : regions) {
    if (r.kind == os::Region::Kind::kAlloc && (r.prot & os::kProtExec)) {
      has_private_exec = true;
    }
  }
  EXPECT_TRUE(has_private_exec);
}

TEST(Cuckoo, HollowingLeavesChildProcessEvidenceOnlyInDump) {
  attacks::HollowingScenario sc;
  SandboxedRun run;
  sandbox(sc, run);
  EXPECT_FALSE(run.cuckoo.behavioral_verdict());
  // malfind does see the resident keylogger region inside svchost...
  auto hits = malfind(run.dump);
  bool in_svchost = false;
  for (const auto& h : hits) {
    if (h.proc == "svchost.exe") in_svchost = true;
  }
  EXPECT_TRUE(in_svchost);
  // ...but has no idea where the payload came from (no provenance). The
  // hit structure simply has nothing beyond addresses — asserted here by
  // construction.
  SUCCEED();
}


TEST(SandboxReport, NetscanDlllistHistogramAndFullReport) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  SandboxedRun run;
  sandbox(sc, run);

  auto conns = netscan(run.cuckoo);
  ASSERT_FALSE(conns.empty());
  bool c2_conn = false;
  for (const auto& line : conns) {
    if (line.find("169.254.26.161:4444") != std::string::npos) c2_conn = true;
  }
  EXPECT_TRUE(c2_conn);

  EXPECT_EQ(dlllist(run.cuckoo).size(), 3u);

  auto hist = syscall_histogram(run.cuckoo);
  ASSERT_FALSE(hist.empty());
  // Sorted descending.
  for (size_t i = 1; i < hist.size(); ++i) {
    EXPECT_GE(hist[i - 1].second, hist[i].second);
  }

  std::string report = render_sandbox_report(run.cuckoo, run.dump);
  EXPECT_NE(report.find("[processes]"), std::string::npos);
  EXPECT_NE(report.find("[network]"), std::string::npos);
  EXPECT_NE(report.find("malfind"), std::string::npos);
  EXPECT_NE(report.find("origin UNKNOWN"), std::string::npos)
      << "the baseline report must expose that malfind has no provenance";
  EXPECT_NE(report.find("no injection artifact observed"),
            std::string::npos);
}

/// A monitor that implements no SyscallObserver.
struct PlainMonitor : osi::GuestMonitor {
  int starts = 0;
  void on_process_start(const osi::ProcessInfo&) override { ++starts; }
};

TEST(SyscallObserver, BusRegistersOnlyObserversAndDetachUnregisters) {
  osi::MonitorBus bus;
  PlainMonitor plain;
  CuckooSandboxSim cuckoo;
  bus.attach(&plain);
  EXPECT_FALSE(bus.observes_syscalls());
  bus.attach(&cuckoo);
  EXPECT_TRUE(bus.observes_syscalls());

  osi::SyscallEvent ev;
  ev.proc = {7, 1, 0x1000, "x.exe"};
  ev.number = 51;
  ev.name = "NtYield";
  bus.on_syscall(ev);
  ASSERT_EQ(cuckoo.syscalls().size(), 1u);
  EXPECT_EQ(cuckoo.syscalls()[0].pid, 7u);

  bus.detach(&cuckoo);
  EXPECT_FALSE(bus.observes_syscalls());
  EXPECT_EQ(bus.count(), 1u);
  bus.on_syscall(ev);
  EXPECT_EQ(cuckoo.syscalls().size(), 1u);
  bus.on_process_start(ev.proc);  // the plain monitor still gets the rest
  EXPECT_EQ(plain.starts, 1);
}

TEST(SyscallObserver, CuckooBesideFarosRecordsTheFullSyscallTrace) {
  // FAROS is no syscall observer: an analyzed run builds no syscall
  // events. Cuckoo attached beside it still sees every syscall the
  // sandboxed run sees.
  attacks::ReflectiveDllScenario alone_sc(
      attacks::ReflectiveVariant::kMeterpreter);
  SandboxedRun alone;
  sandbox(alone_sc, alone);

  {
    attacks::Analysis plain;
    EXPECT_FALSE(plain.machine().kernel().monitors().observes_syscalls());
  }
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  CuckooSandboxSim beside;
  attacks::Analysis a;
  a.machine().add_monitor(&beside);
  EXPECT_TRUE(a.machine().kernel().monitors().observes_syscalls());
  ASSERT_TRUE(a.start(sc).ok());
  a.run(sc.budget());
  EXPECT_TRUE(a.engine().flagged());

  const auto& want = alone.cuckoo.syscalls();
  const auto& got = beside.syscalls();
  ASSERT_GT(want.size(), 1000u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].pid, want[i].pid) << i;
    ASSERT_EQ(got[i].proc, want[i].proc) << i;
    ASSERT_EQ(got[i].number, want[i].number) << i;
    ASSERT_EQ(got[i].name, want[i].name) << i;
  }
}

}  // namespace
}  // namespace faros::baselines
