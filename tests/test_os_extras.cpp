// Extended OS surface: DNS resolution, process enumeration, per-process
// CPU accounting, kernel32 Win32 wrappers, and the DNS-staged
// reverse_tcp_dns client flow.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "common/hash.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros::os {
namespace {

using attacks::emit_exit;
using attacks::emit_sys;
using vm::Reg;

class OsExtrasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>();
    ASSERT_TRUE(machine_->boot().ok());
  }

  Kernel& kernel() { return machine_->kernel(); }

  Pid spawn(const std::string& name,
            const std::function<void(ImageBuilder&)>& build) {
    ImageBuilder ib(name, kUserImageBase);
    build(ib);
    auto img = ib.build();
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
    kernel().vfs().create("C:/" + name, img.value().serialize());
    auto pid = kernel().spawn("C:/" + name);
    EXPECT_TRUE(pid.ok());
    return pid.value_or(0);
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(OsExtrasTest, ResolveHostUsesRegistryThenDeterministicHash) {
  kernel().add_dns("c2.evil.net", 0x01020304);
  EXPECT_EQ(kernel().resolve_host("c2.evil.net"), 0x01020304u);
  u32 a = kernel().resolve_host("unknown.example");
  u32 b = kernel().resolve_host("unknown.example");
  EXPECT_EQ(a, b);                       // deterministic
  EXPECT_EQ(a >> 24, 0x5du);             // synthetic 93.0.0.0/8
  EXPECT_NE(a, kernel().resolve_host("other.example"));
}

TEST_F(OsExtrasTest, GuestResolveHostSyscall) {
  kernel().add_dns("api.update.com", 0xc0a80101);
  Pid pid = spawn("dns.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "host");
    emit_sys(a, Sys::kNtResolveHost);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("host");
    a.data_str("api.update.com");
  });
  machine_->run(10000);
  EXPECT_EQ(kernel().find(pid)->exit_code, 0xc0a80101u);
}

TEST_F(OsExtrasTest, QueryProcessListEnumeratesAliveProcesses) {
  // Two spinners plus the enumerator itself.
  auto spin = [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.label("s");
    emit_sys(a, Sys::kNtYield);
    a.jmp("s");
  };
  Pid a_pid = spawn("a.exe", spin);
  Pid b_pid = spawn("b.exe", spin);
  Pid lister = spawn("lister.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "buf");
    a.movi(Reg::R2, 16);
    emit_sys(a, Sys::kNtQueryProcessList);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("buf");
    a.zeros(64);
  });
  machine_->run(20000);
  Process* p = kernel().find(lister);
  EXPECT_EQ(p->exit_code, 3u);  // a, b, lister
  // The pid array landed in guest memory... the process exited, so verify
  // against a fresh read before destruction isn't possible; instead trust
  // the count and check the pids were assigned in order.
  EXPECT_LT(a_pid, b_pid);
  EXPECT_LT(b_pid, lister);
}

TEST_F(OsExtrasTest, PerProcessCpuAccounting) {
  Pid busy = spawn("busy.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    attacks::emit_busy_loop(a, "x", 2000);
    emit_exit(a, 0);
  });
  Pid lazy = spawn("lazy.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_exit(a, 0);
  });
  machine_->run(100000);
  u64 busy_insns = kernel().find(busy)->instr_retired;
  u64 lazy_insns = kernel().find(lazy)->instr_retired;
  EXPECT_GT(busy_insns, 10000u);
  EXPECT_LT(lazy_insns, 16u);
  EXPECT_GE(kernel().interp().instr_count(), busy_insns + lazy_insns);
}

TEST_F(OsExtrasTest, Kernel32WrappersWork) {
  // Uses VirtualAlloc (arg reshuffle), WinExec (spawn helper), Sleep and
  // GetProcAddress (tail call into ntdll) — all via the IAT.
  kernel().vfs().create(
      "C:/Windows/System32/helper.exe",
      attacks::build_helper_program().value().serialize());
  Pid pid = spawn("win32.exe", [](ImageBuilder& ib) {
    ib.import_symbol(sym::kKernel32, sym::kVirtualAlloc, "iat_valloc");
    ib.import_symbol(sym::kKernel32, sym::kWinExec, "iat_winexec");
    ib.import_symbol(sym::kKernel32, sym::kSleep, "iat_sleep");
    ib.import_symbol(sym::kKernel32, sym::kGetProcAddressK32, "iat_gpa");
    auto& a = ib.asm_();
    a.label("_start");
    // VirtualAlloc(4096, RW) -> r9
    a.movi_label(Reg::R4, "iat_valloc");
    a.ld32(Reg::R4, Reg::R4, 0);
    a.movi(Reg::R1, 4096);
    a.movi(Reg::R2, kProtRead | kProtWrite);
    a.callr(Reg::R4);
    a.mov(Reg::R9, Reg::R0);
    // Touch the memory to prove it's mapped RW.
    a.movi(Reg::R2, 77);
    a.st32(Reg::R9, 0, Reg::R2);
    // Sleep(2)
    a.movi_label(Reg::R4, "iat_sleep");
    a.ld32(Reg::R4, Reg::R4, 0);
    a.movi(Reg::R1, 2);
    a.callr(Reg::R4);
    // GetProcAddress(user32, MessageBoxA) -> call it.
    // The resolver clobbers r1-r12: spill the allocation pointer.
    a.push(Reg::R9);
    a.movi_label(Reg::R4, "iat_gpa");
    a.ld32(Reg::R4, Reg::R4, 0);
    a.movi(Reg::R1, fnv1a32(sym::kUser32));
    a.movi(Reg::R2, fnv1a32(sym::kMessageBox));
    a.callr(Reg::R4);
    a.mov(Reg::R5, Reg::R0);
    a.movi_label(Reg::R1, "msg");
    a.movi(Reg::R2, 5);
    a.callr(Reg::R5);
    // WinExec(helper)
    a.movi_label(Reg::R4, "iat_winexec");
    a.ld32(Reg::R4, Reg::R4, 0);
    a.movi_label(Reg::R1, "helper");
    a.callr(Reg::R4);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtWaitProcess);
    a.pop(Reg::R9);
    a.ld32(Reg::R1, Reg::R9, 0);  // 77
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("iat_valloc");
    a.data_u32(0);
    a.label("iat_winexec");
    a.data_u32(0);
    a.label("iat_sleep");
    a.data_u32(0);
    a.label("iat_gpa");
    a.data_u32(0);
    a.label("msg");
    a.data_str("win32", false);
    a.align(8);
    a.label("helper");
    a.data_str(attacks::paths::kHelper);
  });
  machine_->run(200000);
  Process* p = kernel().find(pid);
  ASSERT_EQ(p->state, ProcState::kTerminated);
  EXPECT_TRUE(kernel().trap_log().empty())
      << kernel().trap_log()[0];
  EXPECT_EQ(p->exit_code, 77u);
  bool msg = false, helper = false;
  for (const auto& line : kernel().console()) {
    if (line == "win32.exe: win32") msg = true;
    if (line == "helper.exe: helper done") helper = true;
  }
  EXPECT_TRUE(msg);
  EXPECT_TRUE(helper);
}

TEST(ReverseTcpDns, DnsStagedVariantStillFlaggedAndDeterministic) {
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kReverseTcpDns);
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  EXPECT_TRUE(run.value().flagged) << run.value().report;
  EXPECT_TRUE(run.value().recorded.traps.empty())
      << run.value().recorded.traps[0];
  // Determinism across record/replay with the DNS step in the path: a bare
  // replay of the analyzed live run's log prints the same console.
  auto replayed =
      attacks::replay_run(sc, run.value().recorded.log, nullptr, {});
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value().console, run.value().recorded.console);
}

}  // namespace
}  // namespace faros::os
