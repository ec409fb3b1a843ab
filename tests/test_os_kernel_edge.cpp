// Kernel hostile-input and edge-case behaviour: bad pointers, wrong handle
// kinds, invalid pids, double-opens, oversized requests. A misbehaving
// guest must get kNtError (or a trap), never corrupt the kernel.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros::os {
namespace {

using attacks::emit_sys;
using vm::Assembler;
using vm::Reg;

class KernelEdgeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>();
    ASSERT_TRUE(machine_->boot().ok());
  }

  Kernel& kernel() { return machine_->kernel(); }

  /// Spawns a program and runs until it exits; returns its exit code.
  u32 run_to_exit(const std::function<void(ImageBuilder&)>& build) {
    ImageBuilder ib("edge.exe", kUserImageBase);
    build(ib);
    auto img = ib.build();
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
    kernel().vfs().create("C:/edge.exe", img.value().serialize());
    auto pid = kernel().spawn("C:/edge.exe");
    EXPECT_TRUE(pid.ok());
    machine_->run(300000);
    Process* p = kernel().find(pid.value());
    EXPECT_EQ(p->state, ProcState::kTerminated);
    return p->exit_code;
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(KernelEdgeTest, FileReadWithBadBufferPointerFailsCleanly) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtCreateFile);
    a.mov(Reg::R8, Reg::R0);
    a.mov(Reg::R1, Reg::R8);
    a.movi(Reg::R2, 0xdead0000);  // unmapped buffer
    a.movi(Reg::R3, 64);
    emit_sys(a, Sys::kNtReadFile);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/x");
  });
  // Read of 0 bytes from an empty file succeeds with 0... but with a bad
  // pointer and empty file nothing is copied; write something first?
  // The file is empty so r0 == 0 regardless; re-run with content below.
  (void)code;
  kernel().vfs().create("C:/y", Bytes(16, 7));
  u32 code2 = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtOpenFile);
    a.mov(Reg::R1, Reg::R0);
    a.movi(Reg::R2, 0xdead0000);
    a.movi(Reg::R3, 16);
    emit_sys(a, Sys::kNtReadFile);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/y");
  });
  EXPECT_EQ(code2, kNtError);
}

TEST_F(KernelEdgeTest, WrongHandleKindIsRejected) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtSocket);
    a.mov(Reg::R8, Reg::R0);
    // NtReadFile on a socket handle.
    a.mov(Reg::R1, Reg::R8);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 4);
    emit_sys(a, Sys::kNtReadFile);
    a.mov(Reg::R11, Reg::R0);
    // NtSend on a file handle.
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtCreateFile);
    a.mov(Reg::R1, Reg::R0);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 4);
    emit_sys(a, Sys::kNtSend);
    // Both must have failed.
    a.cmpi(Reg::R11, -1);
    a.bne("bad");
    a.cmpi(Reg::R0, -1);
    a.bne("bad");
    attacks::emit_exit(a, 1);
    a.label("bad");
    attacks::emit_exit(a, 2);
    a.align(8);
    a.label("path");
    a.data_str("C:/f");
    a.align(8);
    a.label("buf");
    a.zeros(8);
  });
  EXPECT_EQ(code, 1u);
}

TEST_F(KernelEdgeTest, CrossProcessOpsRejectSelfAndBadPid) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtGetCurrentPid);
    a.mov(Reg::R8, Reg::R0);
    // Write-VM to self is rejected.
    a.mov(Reg::R1, Reg::R8);
    a.movi(Reg::R2, kUserImageBase);
    a.movi_label(Reg::R3, "buf");
    a.movi(Reg::R4, 4);
    emit_sys(a, Sys::kNtWriteVirtualMemory);
    a.mov(Reg::R11, Reg::R0);
    // Write-VM to a nonexistent pid is rejected.
    a.movi(Reg::R1, 9999);
    a.movi(Reg::R2, kUserImageBase);
    a.movi_label(Reg::R3, "buf");
    a.movi(Reg::R4, 4);
    emit_sys(a, Sys::kNtWriteVirtualMemory);
    a.cmpi(Reg::R11, -1);
    a.bne("bad");
    a.cmpi(Reg::R0, -1);
    a.bne("bad");
    attacks::emit_exit(a, 1);
    a.label("bad");
    attacks::emit_exit(a, 2);
    a.align(8);
    a.label("buf");
    a.zeros(8);
  });
  EXPECT_EQ(code, 1u);
}

TEST_F(KernelEdgeTest, ProcessControlOnBadPidFails) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, 4242);
    emit_sys(a, Sys::kNtSuspendProcess);
    a.mov(Reg::R11, Reg::R0);
    a.movi(Reg::R1, 4242);
    emit_sys(a, Sys::kNtResumeProcess);
    a.mov(Reg::R12, Reg::R0);
    a.movi(Reg::R1, 4242);
    a.movi(Reg::R2, 0);
    emit_sys(a, Sys::kNtTerminateProcess);
    a.add(Reg::R1, Reg::R11, Reg::R12);
    a.add(Reg::R1, Reg::R1, Reg::R0);  // sum of three error codes
    emit_sys(a, Sys::kNtExit);
  });
  EXPECT_EQ(code, 3 * kNtError);
}

TEST_F(KernelEdgeTest, TwoHandlesToSameFileHaveIndependentCursors) {
  kernel().vfs().create("C:/shared", Bytes{'a', 'b', 'c', 'd'});
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtOpenFile);
    a.mov(Reg::R8, Reg::R0);
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtOpenFile);
    a.mov(Reg::R9, Reg::R0);
    // Read 2 via h1; then 1 via h2 — h2 must still see 'a'.
    a.mov(Reg::R1, Reg::R8);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 2);
    emit_sys(a, Sys::kNtReadFile);
    a.mov(Reg::R1, Reg::R9);
    a.movi_label(Reg::R2, "buf2");
    a.movi(Reg::R3, 1);
    emit_sys(a, Sys::kNtReadFile);
    a.movi_label(Reg::R5, "buf2");
    a.ld8(Reg::R1, Reg::R5, 0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/shared");
    a.align(8);
    a.label("buf");
    a.zeros(4);
    a.label("buf2");
    a.zeros(4);
  });
  EXPECT_EQ(code, static_cast<u32>('a'));
}

TEST_F(KernelEdgeTest, OversizedRequestsAreRejected) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    // 64 MiB allocation: over the per-allocation cap.
    a.movi(Reg::R1, 0);
    a.movi(Reg::R2, 64u << 20);
    a.movi(Reg::R3, kProtRead | kProtWrite);
    emit_sys(a, Sys::kNtAllocateVirtualMemory);
    a.mov(Reg::R11, Reg::R0);
    // 8 MiB file read: over the I/O cap.
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtCreateFile);
    a.mov(Reg::R1, Reg::R0);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 8u << 20);
    emit_sys(a, Sys::kNtReadFile);
    a.cmpi(Reg::R11, -1);
    a.bne("bad");
    a.cmpi(Reg::R0, -1);
    a.bne("bad");
    attacks::emit_exit(a, 1);
    a.label("bad");
    attacks::emit_exit(a, 2);
    a.align(8);
    a.label("path");
    a.data_str("C:/f");
    a.align(8);
    a.label("buf");
    a.zeros(8);
  });
  EXPECT_EQ(code, 1u);
}

TEST_F(KernelEdgeTest, VmSyscallsNeverTouchTheSharedKernelHalf) {
  // Protect and free over the module directory (one page, and a user range
  // running into it) fail, and every process still reads the directory.
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R5, 0);
    const std::pair<u32, u32> ranges[] = {
        {KernelLayout::kModuleDir, 1},
        {vm::kKernelBase - vm::kPageSize, 2 * vm::kPageSize}};
    for (auto [va, len] : ranges) {
      for (Sys sys :
           {Sys::kNtProtectVirtualMemory, Sys::kNtFreeVirtualMemory}) {
        a.movi(Reg::R1, 0);
        a.movi(Reg::R2, va);
        a.movi(Reg::R3, len);
        a.movi(Reg::R4, kProtRead | kProtWrite);
        emit_sys(a, sys);
        a.add(Reg::R5, Reg::R5, Reg::R0);
      }
    }
    a.mov(Reg::R1, Reg::R5);
    emit_sys(a, Sys::kNtExit);
  });
  EXPECT_EQ(code, 4 * kNtError);
  EXPECT_EQ(kernel().kernel_as().read32_or(KernelLayout::kModuleDir, 0),
            kernel().modules().size());
}

TEST_F(KernelEdgeTest, SuspendedProcessIsNeverScheduled) {
  ImageBuilder ib("frozen.exe", kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  a.movi(Reg::R1, 1);  // would be visible if it ever ran
  a.label("spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("spin");
  auto img = ib.build();
  ASSERT_TRUE(img.ok());
  kernel().vfs().create("C:/frozen.exe", img.value().serialize());
  auto pid = kernel().spawn("C:/frozen.exe", /*suspended=*/true);
  ASSERT_TRUE(pid.ok());
  auto stats = machine_->run(10000);
  Process* p = kernel().find(pid.value());
  EXPECT_EQ(p->cpu.regs[Reg::R1], 0u);
  EXPECT_EQ(p->cpu.pc(), kUserImageBase);
  EXPECT_TRUE(stats.deadlocked);  // nothing else to run
}

TEST_F(KernelEdgeTest, CreateProcessWithMissingImageReturnsError) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    a.movi(Reg::R2, 0);
    emit_sys(a, Sys::kNtCreateProcess);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/no/such.exe");
  });
  EXPECT_EQ(code, kNtError);
}

TEST_F(KernelEdgeTest, DebugPrintLengthIsCapped) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "text");
    a.movi(Reg::R2, 100000);  // absurd length: capped, reads what's mapped
    emit_sys(a, Sys::kNtDebugPrint);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("text");
    a.data_str("tiny", false);
  });
  // The length is clamped to 1 KiB (still within the mapped image page),
  // so the call succeeds but never floods the console.
  EXPECT_EQ(code, 0u);
  ASSERT_EQ(kernel().find_by_name("edge.exe"), nullptr);  // exited
  bool found = false;
  for (const auto& line : kernel().console()) {
    if (line.rfind("edge.exe: tiny", 0) == 0) {
      found = true;
      EXPECT_LE(line.size(), std::string("edge.exe: ").size() + 1024);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(KernelEdgeTest, CloseHandleTwiceFails) {
  u32 code = run_to_exit([](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtCreateFile);
    a.mov(Reg::R8, Reg::R0);
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtCloseHandle);
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtCloseHandle);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/h");
  });
  EXPECT_EQ(code, kNtError);
}

}  // namespace
}  // namespace faros::os
