// Kernel: boot, module loading, spawn/loader, scheduling, blocking waits,
// and every syscall family.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "common/hash.h"
#include "common/strings.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros::os {
namespace {

using attacks::emit_exit;
using attacks::emit_sys;
using vm::Assembler;
using vm::Reg;

class KernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    machine_ = std::make_unique<Machine>();
    auto r = machine_->boot();
    ASSERT_TRUE(r.ok()) << r.error().message;
  }

  Kernel& kernel() { return machine_->kernel(); }

  /// Builds an image from `build`, installs it and spawns it.
  Pid spawn_program(const std::string& name,
                    const std::function<void(ImageBuilder&)>& build,
                    bool suspended = false) {
    ImageBuilder ib(name, kUserImageBase);
    build(ib);
    auto img = ib.build();
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
    std::string path = "C:/test/" + name;
    kernel().vfs().create(path, img.value().serialize());
    auto pid = kernel().spawn(path);
    EXPECT_TRUE(pid.ok()) << (pid.ok() ? "" : pid.error().message);
    (void)suspended;
    return pid.ok() ? pid.value() : 0;
  }

  RunStats run(u64 budget = 200000) { return machine_->run(budget); }

  /// Yields forever: one scheduling round per three instructions.
  static void idle_program(ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.label("loop");
    emit_sys(a, Sys::kNtYield);
    a.jmp("loop");
  }

  std::unique_ptr<Machine> machine_;
};

TEST_F(KernelTest, BootLoadsRuntimeModulesWithGuestExportTables) {
  const auto& mods = kernel().modules();
  ASSERT_EQ(mods.size(), 3u);
  EXPECT_EQ(mods[0].name, "ntdll.dll");
  EXPECT_EQ(mods[1].name, "user32.dll");
  EXPECT_GE(mods[0].export_count, 8u);

  // The guest module directory reflects both modules.
  const auto& as = kernel().kernel_as();
  EXPECT_EQ(as.read32_or(KernelLayout::kModuleDir, 0), 3u);
  u32 hash0 = as.read32_or(KernelLayout::kModuleDir + 4, 0);
  EXPECT_EQ(hash0, fnv1a32("ntdll.dll"));

  // Export table structure: count, then (hash, addr) pairs in range.
  u32 count = as.read32_or(mods[0].exports_va, 0);
  EXPECT_EQ(count, mods[0].export_count);
  u32 addr = as.read32_or(mods[0].exports_va + 8, 0);
  EXPECT_GE(addr, mods[0].base);
  EXPECT_LT(addr, mods[0].base + mods[0].size);
}

TEST_F(KernelTest, SpawnSetsUpProcess) {
  Pid pid = spawn_program("hello.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, 7);
    emit_exit(a, 7);
  });
  ASSERT_NE(pid, 0u);
  Process* p = kernel().find(pid);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->name, "hello.exe");
  EXPECT_EQ(p->cpu.pc(), kUserImageBase);
  EXPECT_EQ(p->regions.size(), 2u);  // image + stack
  EXPECT_NE(p->as.cr3(), 0u);

  run();
  EXPECT_EQ(p->state, ProcState::kTerminated);
  EXPECT_EQ(p->exit_code, 7u);
  EXPECT_EQ(kernel().live_count(), 0u);
}

TEST_F(KernelTest, SpawnFailsOnMissingOrCorruptImage) {
  EXPECT_FALSE(kernel().spawn("C:/missing.exe").ok());
  kernel().vfs().create("C:/garbage.exe", Bytes{1, 2, 3});
  EXPECT_FALSE(kernel().spawn("C:/garbage.exe").ok());
}

TEST_F(KernelTest, ImportResolutionPatchesIatSlots) {
  Pid pid = spawn_program("import.exe", [](ImageBuilder& ib) {
    ib.import_symbol(sym::kUser32, sym::kMessageBox, "iat_msgbox");
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R4, "iat_msgbox");
    a.ld32(Reg::R5, Reg::R4, 0);
    a.movi_label(Reg::R1, "text");
    a.movi(Reg::R2, 5);
    a.callr(Reg::R5);
    emit_exit(a, 0);
    a.align(8);
    a.label("iat_msgbox");
    a.data_u32(0);
    a.label("text");
    a.data_str("hullo", false);
  });
  ASSERT_NE(pid, 0u);
  run();
  ASSERT_FALSE(kernel().console().empty());
  EXPECT_EQ(kernel().console()[0], "import.exe: hullo");
}

TEST_F(KernelTest, GuestGetProcAddressResolvesAcrossModules) {
  // Calls ntdll!RtlGetProcAddress (at the module base) to resolve
  // user32!MessageBoxA entirely with guest instructions.
  Pid pid = spawn_program("gpa.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R9, KernelLayout::kNtdllBase);
    a.movi(Reg::R1, fnv1a32(sym::kUser32));
    a.movi(Reg::R2, fnv1a32(sym::kMessageBox));
    a.callr(Reg::R9);
    a.mov(Reg::R5, Reg::R0);
    a.movi_label(Reg::R1, "text");
    a.movi(Reg::R2, 3);
    a.callr(Reg::R5);
    emit_exit(a, 0);
    a.align(8);
    a.label("text");
    a.data_str("gpa", false);
  });
  ASSERT_NE(pid, 0u);
  run();
  ASSERT_FALSE(kernel().console().empty());
  EXPECT_EQ(kernel().console()[0], "gpa.exe: gpa");
  EXPECT_TRUE(kernel().trap_log().empty());
}

TEST_F(KernelTest, FileSyscallFamily) {
  Pid pid = spawn_program("files.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    // h = NtCreateFile("C:/t.txt")
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtCreateFile);
    a.mov(Reg::R8, Reg::R0);
    // write "abcdef"
    a.mov(Reg::R1, Reg::R8);
    a.movi_label(Reg::R2, "data");
    a.movi(Reg::R3, 6);
    emit_sys(a, Sys::kNtWriteFile);
    // seek 2, read 3 into buf
    a.mov(Reg::R1, Reg::R8);
    a.movi(Reg::R2, 2);
    emit_sys(a, Sys::kNtSeekFile);
    a.mov(Reg::R1, Reg::R8);
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 3);
    emit_sys(a, Sys::kNtReadFile);
    // size -> r11
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtQueryFileSize);
    a.mov(Reg::R11, Reg::R0);
    // print buf
    a.movi_label(Reg::R1, "buf");
    a.movi(Reg::R2, 3);
    emit_sys(a, Sys::kNtDebugPrint);
    // close, exit with size
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtCloseHandle);
    a.mov(Reg::R1, Reg::R11);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/t.txt");
    a.align(8);
    a.label("data");
    a.data_str("abcdef", false);
    a.align(8);
    a.label("buf");
    a.zeros(8);
  });
  ASSERT_NE(pid, 0u);
  run();
  Process* p = kernel().find(pid);
  EXPECT_EQ(p->exit_code, 6u);
  ASSERT_FALSE(kernel().console().empty());
  EXPECT_EQ(kernel().console()[0], "files.exe: cde");
  auto content = kernel().vfs().read_all("C:/t.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(),
            (Bytes{'a', 'b', 'c', 'd', 'e', 'f'}));
}

TEST_F(KernelTest, PositionalReadWriteAndExistence) {
  kernel().vfs().create("C:/pos.bin", Bytes{0, 1, 2, 3, 4, 5, 6, 7});
  Pid pid = spawn_program("pos.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtQueryFileExists);
    a.mov(Reg::R11, Reg::R0);  // 1
    a.movi_label(Reg::R1, "path");
    emit_sys(a, Sys::kNtOpenFile);
    a.mov(Reg::R8, Reg::R0);
    // ReadFileAt(h, off=4, buf, 2)
    a.mov(Reg::R1, Reg::R8);
    a.movi(Reg::R2, 4);
    a.movi_label(Reg::R3, "buf");
    a.movi(Reg::R4, 2);
    emit_sys(a, Sys::kNtReadFileAt);
    // WriteFileAt(h, off=0, buf, 2) -> copies bytes 4,5 to 0,1
    a.mov(Reg::R1, Reg::R8);
    a.movi(Reg::R2, 0);
    a.movi_label(Reg::R3, "buf");
    a.movi(Reg::R4, 2);
    emit_sys(a, Sys::kNtWriteFileAt);
    a.mov(Reg::R1, Reg::R11);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("path");
    a.data_str("C:/pos.bin");
    a.align(8);
    a.label("buf");
    a.zeros(4);
  });
  ASSERT_NE(pid, 0u);
  run();
  EXPECT_EQ(kernel().find(pid)->exit_code, 1u);
  auto content = kernel().vfs().read_all("C:/pos.bin");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content.value(), (Bytes{4, 5, 2, 3, 4, 5, 6, 7}));
}

TEST_F(KernelTest, VirtualAllocProtectFree) {
  Pid pid = spawn_program("vm.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    attacks::emit_alloc_self(a, 8192, kProtRead | kProtWrite);
    a.mov(Reg::R9, Reg::R0);
    // Write/read through it.
    a.movi(Reg::R2, 0x1234);
    a.st32(Reg::R9, 100, Reg::R2);
    a.ld32(Reg::R3, Reg::R9, 100);
    // Protect it read-only, then free it.
    a.movi(Reg::R1, 0);
    a.mov(Reg::R2, Reg::R9);
    a.movi(Reg::R3, 8192);
    a.movi(Reg::R4, kProtRead);
    emit_sys(a, Sys::kNtProtectVirtualMemory);
    a.movi(Reg::R1, 0);
    a.mov(Reg::R2, Reg::R9);
    a.movi(Reg::R3, 8192);
    emit_sys(a, Sys::kNtFreeVirtualMemory);
    a.mov(Reg::R1, Reg::R3);
    emit_sys(a, Sys::kNtExit);
  });
  ASSERT_NE(pid, 0u);
  run();
  Process* p = kernel().find(pid);
  EXPECT_EQ(p->state, ProcState::kTerminated);
  EXPECT_TRUE(kernel().trap_log().empty());
  // Region list no longer holds the freed allocation.
  for (const auto& r : p->regions) {
    EXPECT_NE(r.kind, Region::Kind::kAlloc);
  }
}

TEST_F(KernelTest, WriteToFreedOrProtectedMemoryTraps) {
  Pid pid = spawn_program("bad.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    attacks::emit_alloc_self(a, 4096, kProtRead);  // no write
    a.mov(Reg::R9, Reg::R0);
    a.movi(Reg::R2, 1);
    a.st8(Reg::R9, 0, Reg::R2);  // faults
    emit_exit(a, 0);
  });
  ASSERT_NE(pid, 0u);
  run();
  EXPECT_EQ(kernel().find(pid)->exit_code, 0xdeadu);
  ASSERT_FALSE(kernel().trap_log().empty());
  EXPECT_NE(kernel().trap_log()[0].find("write-protect"),
            std::string::npos);
}

TEST_F(KernelTest, ProcessLifecycleSuspendResumeWait) {
  // parent spawns child suspended, resumes it, waits for its exit code.
  ImageBuilder child("child.exe", kUserImageBase);
  {
    auto& a = child.asm_();
    a.label("_start");
    emit_exit(a, 55);
  }
  auto child_img = child.build();
  ASSERT_TRUE(child_img.ok());
  kernel().vfs().create("C:/test/child.exe", child_img.value().serialize());

  Pid pid = spawn_program("parent.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "childpath");
    a.movi(Reg::R2, 1);  // suspended
    emit_sys(a, Sys::kNtCreateProcess);
    a.mov(Reg::R8, Reg::R0);
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtResumeProcess);
    a.mov(Reg::R1, Reg::R8);
    emit_sys(a, Sys::kNtWaitProcess);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("childpath");
    a.data_str("C:/test/child.exe");
  });
  ASSERT_NE(pid, 0u);
  run();
  EXPECT_EQ(kernel().find(pid)->exit_code, 55u);
}

TEST_F(KernelTest, OpenProcessByNameAndCrossProcessMemory) {
  Pid victim = spawn_program("victim.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
  });
  ASSERT_NE(victim, 0u);

  Pid attacker = spawn_program("attacker.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "vname");
    emit_sys(a, Sys::kNtOpenProcessByName);
    a.mov(Reg::R7, Reg::R0);
    // Allocate in the victim, write 4 bytes, read them back.
    a.mov(Reg::R1, Reg::R7);
    a.movi(Reg::R2, 4096);
    a.movi(Reg::R3, kProtRead | kProtWrite);
    emit_sys(a, Sys::kNtAllocateVirtualMemory);
    a.mov(Reg::R6, Reg::R0);
    a.mov(Reg::R1, Reg::R7);
    a.mov(Reg::R2, Reg::R6);
    a.movi_label(Reg::R3, "data");
    a.movi(Reg::R4, 4);
    emit_sys(a, Sys::kNtWriteVirtualMemory);
    a.mov(Reg::R1, Reg::R7);
    a.mov(Reg::R2, Reg::R6);
    a.movi_label(Reg::R3, "buf");
    a.movi(Reg::R4, 4);
    emit_sys(a, Sys::kNtReadVirtualMemory);
    a.movi_label(Reg::R5, "buf");
    a.ld32(Reg::R1, Reg::R5, 0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("vname");
    a.data_str("victim.exe");
    a.align(8);
    a.label("data");
    a.data_u32(0xfeedface);
    a.label("buf");
    a.zeros(4);
  });
  ASSERT_NE(attacker, 0u);
  run();
  EXPECT_EQ(kernel().find(attacker)->exit_code, 0xfeedfaceu);
}

TEST_F(KernelTest, RecvBlocksUntilPacketDelivered) {
  Pid pid = spawn_program("net.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    attacks::emit_connect(a, attacks::kAttackerIp, attacks::kAttackerPort);
    a.movi_label(Reg::R9, "buf");
    attacks::emit_recv(a, Reg::R9, 16);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("buf");
    a.zeros(16);
  });
  ASSERT_NE(pid, 0u);
  // Run a while: the process must block, not exit.
  run(50000);
  Process* p = kernel().find(pid);
  EXPECT_EQ(p->state, ProcState::kBlocked);

  // Deliver 5 bytes on the connected flow; the wait completes.
  FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                  kernel().net().guest_ip(), 49162};
  EXPECT_TRUE(kernel().deliver_packet(reply, Bytes{1, 2, 3, 4, 5}));
  run(50000);
  EXPECT_EQ(p->state, ProcState::kTerminated);
  EXPECT_EQ(p->exit_code, 5u);
}

TEST_F(KernelTest, DeviceReadBlocksAndCompletes) {
  Pid pid = spawn_program("dev.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, static_cast<u32>(DeviceId::kKeyboard));
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 8);
    emit_sys(a, Sys::kNtReadDevice);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("buf");
    a.zeros(8);
  });
  ASSERT_NE(pid, 0u);
  run(20000);
  EXPECT_EQ(kernel().find(pid)->state, ProcState::kBlocked);
  kernel().deliver_device(static_cast<u32>(DeviceId::kKeyboard),
                          Bytes{'a', 'b', 'c'});
  run(20000);
  EXPECT_EQ(kernel().find(pid)->exit_code, 3u);
}

/// The bytes of every kernel transfer into one process, in order.
class XferLog : public osi::GuestMonitor {
 public:
  explicit XferLog(Pid pid) : pid_(pid) {}
  void on_packet_to_guest(const osi::GuestXfer& x, const FlowTuple&,
                          const osi::PacketMeta&) override {
    add("packet", x);
  }
  void on_device_read(const osi::GuestXfer& x, u32 dev) override {
    add("device" + std::to_string(dev), x);
  }
  void on_kernel_write(const osi::GuestXfer& x) override {
    add("kernel_write", x);
  }
  std::vector<std::string> lines;

 private:
  void add(const std::string& kind, const osi::GuestXfer& x) {
    if (x.proc.pid != pid_) return;
    Bytes data(x.len);
    EXPECT_TRUE(x.as->copy_out(x.va, data, /*user=*/true).ok());
    lines.push_back(kind + " " + hex32(x.va) + " " +
                    std::string(data.begin(), data.end()));
  }
  Pid pid_;
};

/// A blocking syscall: the guest code that issues it (result left in r0;
/// the program may read and write its 16-byte "buf"), and the host input
/// that completes it.
struct BlockingCall {
  Sys sys;
  std::function<void(Assembler&)> emit;
  std::function<void(Kernel&)> input;
  u32 result;
};

std::vector<BlockingCall> blocking_calls() {
  return {
      {Sys::kNtRecv,
       [](Assembler& a) {
         attacks::emit_connect(a, attacks::kAttackerIp,
                               attacks::kAttackerPort);
         a.movi_label(Reg::R9, "buf");
         attacks::emit_recv(a, Reg::R9, 16);
       },
       [](Kernel& k) {
         FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                         k.net().guest_ip(), 49162};
         EXPECT_TRUE(k.deliver_packet(reply, Bytes{'h', 'e', 'l', 'l', 'o'}));
       },
       5},
      {Sys::kNtReadDevice,
       [](Assembler& a) {
         a.movi(Reg::R1, static_cast<u32>(DeviceId::kKeyboard));
         a.movi_label(Reg::R2, "buf");
         a.movi(Reg::R3, 8);
         emit_sys(a, Sys::kNtReadDevice);
       },
       [](Kernel& k) {
         k.deliver_device(static_cast<u32>(DeviceId::kKeyboard),
                          Bytes{'a', 'b', 'c'});
       },
       3},
      // Waits for a child that exits with the length of a keyboard read.
      {Sys::kNtWaitProcess,
       [](Assembler& a) {
         a.movi_label(Reg::R1, "childpath");
         a.movi(Reg::R2, 0);
         emit_sys(a, Sys::kNtCreateProcess);
         a.mov(Reg::R1, Reg::R0);
         emit_sys(a, Sys::kNtWaitProcess);
       },
       [](Kernel& k) {
         k.deliver_device(static_cast<u32>(DeviceId::kKeyboard),
                          Bytes{'x', 'y', 'z', 'w'});
       },
       4},
  };
}

struct BlockedRun {
  u32 r0 = 0;
  Bytes buf;
  std::vector<std::string> events;
};

/// Runs `call` in "waiter.exe" until it blocks, optionally has a second
/// process suspend and resume the waiter while it is blocked, then delivers
/// the input and runs the waiter to completion.
BlockedRun run_blocking_call(const BlockingCall& call, bool suspend) {
  Machine m;
  EXPECT_TRUE(m.boot().ok());
  Kernel& k = m.kernel();
  auto install = [&](ImageBuilder& ib) {
    auto img = ib.build();
    EXPECT_TRUE(img.ok());
    k.vfs().create("C:/test/" + img.value().name, img.value().serialize());
    return img.value().name;
  };

  ImageBuilder child("child.exe", kUserImageBase);
  {
    auto& a = child.asm_();
    a.label("_start");
    a.movi(Reg::R1, static_cast<u32>(DeviceId::kKeyboard));
    a.movi_label(Reg::R2, "buf");
    a.movi(Reg::R3, 8);
    emit_sys(a, Sys::kNtReadDevice);
    a.mov(Reg::R1, Reg::R0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("buf");
    a.zeros(8);
  }
  install(child);

  ImageBuilder waiter("waiter.exe", kUserImageBase);
  {
    auto& a = waiter.asm_();
    a.label("_start");
    call.emit(a);
    a.mov(Reg::R8, Reg::R0);
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
    a.align(8);
    a.label("buf");
    a.zeros(16);
    a.label("childpath");
    a.data_str("C:/test/child.exe");
  }
  auto pid = k.spawn("C:/test/" + install(waiter));
  EXPECT_TRUE(pid.ok());
  const VAddr buf_va =
      kUserImageBase + waiter.asm_().label_offset("buf").value();

  // Suspends the waiter at the first screen input, resumes it at the
  // second.
  ImageBuilder ctl("controller.exe", kUserImageBase);
  {
    auto& a = ctl.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "name");
    emit_sys(a, Sys::kNtOpenProcessByName);
    a.mov(Reg::R7, Reg::R0);
    for (Sys step : {Sys::kNtSuspendProcess, Sys::kNtResumeProcess}) {
      a.movi(Reg::R1, static_cast<u32>(DeviceId::kScreen));
      a.movi_label(Reg::R2, "scratch");
      a.movi(Reg::R3, 1);
      emit_sys(a, Sys::kNtReadDevice);
      a.mov(Reg::R1, Reg::R7);
      emit_sys(a, step);
    }
    emit_exit(a, 0);
    a.align(8);
    a.label("name");
    a.data_str("waiter.exe");
    a.align(8);
    a.label("scratch");
    a.zeros(8);
  }
  if (suspend) {
    EXPECT_TRUE(k.spawn("C:/test/" + install(ctl)).ok());
  }

  XferLog log(pid.value());
  m.add_monitor(&log);
  Process* p = k.find(pid.value());
  const u32 num = static_cast<u32>(call.sys);
  m.run(50000);
  EXPECT_EQ(p->state, ProcState::kBlocked);
  EXPECT_EQ(p->cpu.regs[Reg::R0], num);  // the call waits in r0..r4
  if (suspend) {
    k.deliver_device(static_cast<u32>(DeviceId::kScreen), Bytes{1});
    m.run(50000);
    EXPECT_EQ(p->state, ProcState::kSuspended);
    EXPECT_TRUE(p->in_syscall);
    EXPECT_EQ(p->cpu.regs[Reg::R0], num);
    k.deliver_device(static_cast<u32>(DeviceId::kScreen), Bytes{1});
    m.run(50000);
    EXPECT_EQ(p->state, ProcState::kBlocked);  // resumed, still waiting
    EXPECT_EQ(p->cpu.regs[Reg::R0], num);
  }
  call.input(k);
  m.run(50000);
  EXPECT_TRUE(p->alive());
  EXPECT_FALSE(p->in_syscall);
  BlockedRun out;
  out.r0 = p->cpu.regs[Reg::R8];
  out.buf.resize(16);
  EXPECT_TRUE(p->as.copy_out(buf_va, out.buf, /*user=*/true).ok());
  out.events = log.lines;
  return out;
}

TEST(KernelBlocking, SuspendedWhileBlockedWaitsAgainAfterResume) {
  for (const BlockingCall& call : blocking_calls()) {
    SCOPED_TRACE(syscall_name(static_cast<u32>(call.sys)));
    const BlockedRun plain = run_blocking_call(call, /*suspend=*/false);
    const BlockedRun suspended = run_blocking_call(call, /*suspend=*/true);
    EXPECT_EQ(plain.r0, call.result);
    EXPECT_EQ(suspended.r0, plain.r0);
    EXPECT_EQ(suspended.buf, plain.buf);
    EXPECT_EQ(suspended.events, plain.events);
    if (call.sys != Sys::kNtWaitProcess) {
      EXPECT_FALSE(plain.events.empty());
    }
  }
}

TEST_F(KernelTest, MiscSyscalls) {
  Pid pid = spawn_program("misc.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtGetCurrentPid);
    a.mov(Reg::R11, Reg::R0);
    emit_sys(a, Sys::kNtGetTick);
    emit_sys(a, Sys::kNtGetModuleDirectory);
    a.mov(Reg::R12, Reg::R0);
    a.movi_label(Reg::R1, "ntdllname");
    emit_sys(a, Sys::kNtLoadLibrary);
    a.mov(Reg::R9, Reg::R0);
    a.movi_label(Reg::R1, "rbuf");
    a.movi(Reg::R2, 8);
    emit_sys(a, Sys::kNtGetRandom);
    a.mov(Reg::R1, Reg::R11);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("ntdllname");
    a.data_str("ntdll.dll");
    a.align(8);
    a.label("rbuf");
    a.zeros(8);
  });
  ASSERT_NE(pid, 0u);
  run();
  Process* p = kernel().find(pid);
  EXPECT_EQ(p->exit_code, pid);
  EXPECT_EQ(p->cpu.regs[Reg::R12], KernelLayout::kModuleDir);
  EXPECT_EQ(p->cpu.regs[Reg::R9], KernelLayout::kNtdllBase);
}

TEST_F(KernelTest, UnknownSyscallReturnsError) {
  // Every gap in the numbering, both ends of the u32 range and a far value:
  // no row, r0 = kNtError, and the process runs on.
  const std::vector<u32> gaps{0,  16, 19, 26, 29, 39,
                              47, 49, 60, 0xffffffffu, 9999};
  std::vector<Pid> pids;
  for (u32 num : gaps) {
    EXPECT_EQ(find_syscall(num), nullptr) << num;
    EXPECT_STREQ(syscall_name(num), "NtUnknown") << num;
    pids.push_back(spawn_program(
        "weird" + std::to_string(num) + ".exe", [num](ImageBuilder& ib) {
          auto& a = ib.asm_();
          a.label("_start");
          a.movi(Reg::R0, num);
          a.syscall_();
          a.mov(Reg::R1, Reg::R0);
          emit_sys(a, Sys::kNtExit);
        }));
  }
  run();
  for (size_t i = 0; i < gaps.size(); ++i) {
    ASSERT_NE(pids[i], 0u);
    EXPECT_EQ(kernel().find(pids[i])->exit_code, kNtError) << gaps[i];
  }
}

TEST(SyscallTable, OneRowPerNumberNamedAsTheTraceNamesIt) {
  // The Cuckoo trace and the baseline tests read these names.
  const std::vector<std::pair<Sys, std::string>> expected{
      {Sys::kNtCreateFile, "NtCreateFile"},
      {Sys::kNtOpenFile, "NtOpenFile"},
      {Sys::kNtReadFile, "NtReadFile"},
      {Sys::kNtWriteFile, "NtWriteFile"},
      {Sys::kNtCloseHandle, "NtCloseHandle"},
      {Sys::kNtDeleteFile, "NtDeleteFile"},
      {Sys::kNtSeekFile, "NtSeekFile"},
      {Sys::kNtQueryFileSize, "NtQueryFileSize"},
      {Sys::kNtRenameFile, "NtRenameFile"},
      {Sys::kNtTruncateFile, "NtTruncateFile"},
      {Sys::kNtFlushFile, "NtFlushFile"},
      {Sys::kNtQueryFileVersion, "NtQueryFileVersion"},
      {Sys::kNtReadFileAt, "NtReadFileAt"},
      {Sys::kNtWriteFileAt, "NtWriteFileAt"},
      {Sys::kNtQueryFileExists, "NtQueryFileExists"},
      {Sys::kNtAllocateVirtualMemory, "NtAllocateVirtualMemory"},
      {Sys::kNtProtectVirtualMemory, "NtProtectVirtualMemory"},
      {Sys::kNtFreeVirtualMemory, "NtFreeVirtualMemory"},
      {Sys::kNtReadVirtualMemory, "NtReadVirtualMemory"},
      {Sys::kNtWriteVirtualMemory, "NtWriteVirtualMemory"},
      {Sys::kNtUnmapViewOfSection, "NtUnmapViewOfSection"},
      {Sys::kNtCreateProcess, "NtCreateProcess"},
      {Sys::kNtSuspendProcess, "NtSuspendProcess"},
      {Sys::kNtResumeProcess, "NtResumeProcess"},
      {Sys::kNtTerminateProcess, "NtTerminateProcess"},
      {Sys::kNtSetEntryPoint, "NtSetEntryPoint"},
      {Sys::kNtGetCurrentPid, "NtGetCurrentPid"},
      {Sys::kNtWaitProcess, "NtWaitProcess"},
      {Sys::kNtOpenProcessByName, "NtOpenProcessByName"},
      {Sys::kNtQueryProcessList, "NtQueryProcessList"},
      {Sys::kNtSocket, "NtSocket"},
      {Sys::kNtConnect, "NtConnect"},
      {Sys::kNtBind, "NtBind"},
      {Sys::kNtSend, "NtSend"},
      {Sys::kNtRecv, "NtRecv"},
      {Sys::kNtPollRecv, "NtPollRecv"},
      {Sys::kNtResolveHost, "NtResolveHost"},
      {Sys::kNtReadDevice, "NtReadDevice"},
      {Sys::kNtDebugPrint, "NtDebugPrint"},
      {Sys::kNtGetTick, "NtGetTick"},
      {Sys::kNtYield, "NtYield"},
      {Sys::kNtGetRandom, "NtGetRandom"},
      {Sys::kNtExit, "NtExit"},
      {Sys::kNtGetModuleDirectory, "NtGetModuleDirectory"},
      {Sys::kNtLoadLibrary, "NtLoadLibrary"},
      {Sys::kNtAddAtom, "NtAddAtom"},
      {Sys::kNtGetAtom, "NtGetAtom"},
  };
  ASSERT_EQ(syscall_table().size(), expected.size());
  for (const auto& [sys, name] : expected) {
    const u32 num = static_cast<u32>(sys);
    size_t rows = 0;
    for (const SyscallRow& row : syscall_table()) {
      if (row.number == sys) ++rows;
    }
    EXPECT_EQ(rows, 1u) << name;
    ASSERT_NE(find_syscall(num), nullptr) << name;
    EXPECT_EQ(find_syscall(num)->number, sys);
    EXPECT_NE(find_syscall(num)->handler, nullptr) << name;
    EXPECT_EQ(syscall_name(num), name);
  }
  for (size_t i = 1; i < syscall_table().size(); ++i) {
    EXPECT_LT(static_cast<u32>(syscall_table()[i - 1].number),
              static_cast<u32>(syscall_table()[i].number));
  }
}

TEST_F(KernelTest, OsiQueriesResolveCr3) {
  Pid pid = spawn_program("osi.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.label("spin");
    emit_sys(a, Sys::kNtYield);
    a.jmp("spin");
  });
  ASSERT_NE(pid, 0u);
  Process* p = kernel().find(pid);
  auto info = kernel().process_by_cr3(p->as.cr3());
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->pid, pid);
  EXPECT_EQ(info->name, "osi.exe");
  EXPECT_FALSE(kernel().process_by_cr3(0x12345).has_value());
  EXPECT_EQ(kernel().process_list().size(), 1u);
}

TEST_F(KernelTest, SchedulerInterleavesProcesses) {
  auto spin = [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, 0);
    a.label("loop");
    a.addi(Reg::R1, Reg::R1, 1);
    a.cmpi(Reg::R1, 100000);
    a.bltu("loop");
    emit_exit(a, 0);
  };
  Pid a_pid = spawn_program("cpu_a.exe", spin);
  Pid b_pid = spawn_program("cpu_b.exe", spin);
  ASSERT_NE(a_pid, 0u);
  ASSERT_NE(b_pid, 0u);
  // Run a bit: both must have made progress (round robin).
  machine_->run(20000);
  u32 ra = kernel().find(a_pid)->cpu.regs[Reg::R1];
  u32 rb = kernel().find(b_pid)->cpu.regs[Reg::R1];
  EXPECT_GT(ra, 0u);
  EXPECT_GT(rb, 0u);
}

TEST_F(KernelTest, TerminateFreesFramesAndFiresObservers) {
  u32 free_before = 0;
  {
    Pid pid = spawn_program("die.exe", [](ImageBuilder& ib) {
      auto& a = ib.asm_();
      a.label("_start");
      attacks::emit_alloc_self(a, 65536, kProtRead | kProtWrite);
      emit_exit(a, 0);
    });
    ASSERT_NE(pid, 0u);
    free_before = 0;
    run();
    EXPECT_EQ(kernel().find(pid)->state, ProcState::kTerminated);
  }
  (void)free_before;
  // All user frames are back: a fresh spawn of the same size succeeds and
  // process_by_cr3 of the dead process fails (filtered to alive).
  EXPECT_EQ(kernel().live_count(), 0u);
}

TEST_F(KernelTest, RecycledCr3ProcessNeverSeesStaleTranslations) {
  // `first` reads a word at kValueVa and exits with it, leaving that
  // translation in the interpreter TLB. `second` is spawned next: it gets
  // the dead process' CR3 frame but, having one more image page below, maps
  // kValueVa onto another frame. It must read its own word.
  constexpr VAddr kValueVa = kUserImageBase + vm::kPageSize;
  auto install = [&](const std::string& name, VAddr base, u32 value) {
    ImageBuilder ib(name, base);
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R2, kValueVa);
    a.ld32(Reg::R1, Reg::R2, 0);
    emit_sys(a, Sys::kNtExit);
    a.zeros(kValueVa - base - a.size());
    a.data_u32(value);
    auto img = ib.build();
    EXPECT_TRUE(img.ok());
    kernel().vfs().create("C:/test/" + name, img.value().serialize());
    auto pid = kernel().spawn("C:/test/" + name);
    EXPECT_TRUE(pid.ok());
    return pid.ok() ? pid.value() : 0;
  };

  Pid first = install("first.exe", kUserImageBase, 0x1111);
  ASSERT_NE(first, 0u);
  const PAddr cr3 = kernel().find(first)->as.cr3();
  const PAddr old_pa = *kernel().find(first)->as.translate(
      kValueVa, vm::AccessType::kRead, /*user=*/true);
  run();
  ASSERT_EQ(kernel().find(first)->exit_code, 0x1111u);

  Pid second = install("second.exe", kUserImageBase - vm::kPageSize, 0x2222);
  ASSERT_NE(second, 0u);
  ASSERT_EQ(kernel().find(second)->as.cr3(), cr3);
  ASSERT_NE(*kernel().find(second)->as.translate(
                kValueVa, vm::AccessType::kRead, /*user=*/true),
            old_pa);
  run();
  EXPECT_EQ(kernel().find(second)->exit_code, 0x2222u);
}

TEST_F(KernelTest, LiveCountMatchesBruteForceThroughEveryExitPath) {
  Pid exiter = spawn_program("exiter.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtYield);
    emit_exit(a, 3);
  });
  Pid trapper = spawn_program("trapper.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtYield);
    a.movi(Reg::R1, 0);
    a.ld32(Reg::R2, Reg::R1, 0);  // page 0 is never mapped
    emit_exit(a, 0);
  });
  Pid victim = spawn_program("victim.exe", idle_program);
  Pid survivor = spawn_program("survivor.exe", idle_program);
  // Terminates the victim across processes, twice (the second call finds
  // it dead and must not count it again), then exits.
  Pid killer = spawn_program("killer.exe", [&](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, Sys::kNtYield);
    for (int i = 0; i < 2; ++i) {
      a.movi(Reg::R1, victim);
      a.movi(Reg::R2, 9);
      emit_sys(a, Sys::kNtTerminateProcess);
    }
    emit_exit(a, 0);
  });
  const std::vector<Pid> pids{exiter, trapper, victim, survivor, killer};
  for (Pid pid : pids) ASSERT_NE(pid, 0u);
  auto brute = [&] {
    u32 n = 0;
    for (Pid pid : pids) n += kernel().find(pid)->alive() ? 1 : 0;
    return n;
  };
  ASSERT_EQ(kernel().live_count(), 5u);

  for (int round = 0; round < 40; ++round) {
    Process* p = kernel().pick_next();
    ASSERT_NE(p, nullptr);
    kernel().run_process(*p, 256);
    ASSERT_EQ(kernel().live_count(), brute()) << "round " << round;
  }
  EXPECT_EQ(kernel().find(exiter)->exit_code, 3u);
  EXPECT_EQ(kernel().find(trapper)->exit_code, 0xdeadu);
  EXPECT_EQ(kernel().find(victim)->exit_code, 9u);
  EXPECT_EQ(kernel().live_count(), 1u);  // the survivor

  // Host-side terminate: repeated on a dead process, then the last one.
  kernel().terminate(*kernel().find(victim), 1);
  EXPECT_EQ(kernel().live_count(), 1u);
  kernel().terminate(*kernel().find(survivor), 0);
  kernel().terminate(*kernel().find(survivor), 0);
  EXPECT_EQ(kernel().live_count(), brute());
  EXPECT_EQ(kernel().live_count(), 0u);
  EXPECT_EQ(kernel().pick_next(), nullptr);
}

TEST_F(KernelTest, RoundRobinOrderUnchangedWhenMiddleProcessExits) {
  // Each round is one NtYield, so the pick sequence is the scheduler's
  // order alone. b exits on its second turn; a and c keep alternating
  // from where the cursor stood.
  Pid a = spawn_program("a.exe", idle_program);
  Pid b = spawn_program("b.exe", [](ImageBuilder& ib) {
    auto& as = ib.asm_();
    as.label("_start");
    emit_sys(as, Sys::kNtYield);
    emit_exit(as, 0);
  });
  Pid c = spawn_program("c.exe", idle_program);
  std::vector<Pid> order;
  for (int round = 0; round < 10; ++round) {
    Process* p = kernel().pick_next();
    ASSERT_NE(p, nullptr);
    order.push_back(p->pid);
    kernel().run_process(*p, 256);
  }
  EXPECT_EQ(order, (std::vector<Pid>{a, b, c, a, b, c, a, c, a, c}));
  EXPECT_FALSE(kernel().find(b)->alive());
}

}  // namespace
}  // namespace faros::os
