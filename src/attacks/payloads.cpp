#include "attacks/payloads.h"

#include "attacks/guest_common.h"
#include "common/hash.h"
#include "os/runtime.h"

namespace faros::attacks {

namespace {

constexpr u32 kComputeIters = 96;  // rounds of each compute loop
constexpr u32 kKeystrokes = 3;     // keyboard reads the keylogger logs

}  // namespace

using os::Sys;
using vm::Assembler;
using vm::Reg;

Result<Bytes> build_payload(const PayloadSpec& spec) {
  Assembler a;
  a.label("_pstart");
  // Preserve the caller's return address: actions use callr internally.
  a.push(Reg::LR);

  switch (spec.action) {
    case PayloadAction::kMessageBox:
    case PayloadAction::kKeylogger: {
      emit_export_walk(a, "mb", fnv1a32(os::sym::kUser32),
                       fnv1a32(os::sym::kMessageBox));
      a.mov(Reg::R9, Reg::R0);
      a.addpc_label(Reg::R1, "msg");
      a.movi(Reg::R2, static_cast<u32>(spec.message.size()));
      a.callr(Reg::R9);
      if (spec.action == PayloadAction::kMessageBox) break;
      // Open (create) the log file.
      a.addpc_label(Reg::R1, "logpath");
      emit_sys(a, Sys::kNtCreateFile);
      a.mov(Reg::R8, Reg::R0);
      // Capture kKeystrokes keyboard reads into the log.
      a.addpc_label(Reg::R12, "kbuf");
      a.movi(Reg::R11, 0);
      a.label("klog_loop");
      a.cmpi(Reg::R11, static_cast<i32>(kKeystrokes));
      a.bgeu("klog_done");
      a.movi(Reg::R1, static_cast<u32>(os::DeviceId::kKeyboard));
      a.mov(Reg::R2, Reg::R12);
      a.movi(Reg::R3, 16);
      emit_sys(a, Sys::kNtReadDevice);
      a.mov(Reg::R7, Reg::R0);
      a.mov(Reg::R1, Reg::R8);
      a.mov(Reg::R2, Reg::R12);
      a.mov(Reg::R3, Reg::R7);
      emit_sys(a, Sys::kNtWriteFile);
      a.addi(Reg::R11, Reg::R11, 1);
      a.jmp("klog_loop");
      a.label("klog_done");
      break;
    }
    case PayloadAction::kCompute: {
      a.movi(Reg::R5, 3);
      a.movi(Reg::R6, 7);
      a.movi(Reg::R11, 0);
      a.label("c_loop");
      a.cmpi(Reg::R11, static_cast<i32>(kComputeIters));
      a.bgeu("c_done");
      a.mul(Reg::R7, Reg::R5, Reg::R6);
      a.add(Reg::R5, Reg::R7, Reg::R6);
      a.shri(Reg::R5, Reg::R5, 1);
      a.xori(Reg::R6, Reg::R5, 0x55aa);
      a.addi(Reg::R11, Reg::R11, 1);
      a.jmp("c_loop");
      a.label("c_done");
      break;
    }
    case PayloadAction::kLinkedCompute: {
      // Runtime linking: resolve RtlMemset via the export tables, use it.
      emit_export_walk(a, "lc", fnv1a32(os::sym::kNtdll),
                       fnv1a32(os::sym::kMemset));
      a.mov(Reg::R9, Reg::R0);
      a.addpc_label(Reg::R1, "kbuf");
      a.movi(Reg::R2, 0x41);
      a.movi(Reg::R3, 16);
      a.callr(Reg::R9);
      a.movi(Reg::R5, 11);
      a.movi(Reg::R11, 0);
      // "lc_" is the export walk's label namespace (it defines lc_done);
      // the compute loop gets its own prefix.
      a.label("lcc_loop");
      a.cmpi(Reg::R11, static_cast<i32>(kComputeIters));
      a.bgeu("lcc_done");
      a.muli(Reg::R5, Reg::R5, 17);
      a.addi(Reg::R5, Reg::R5, 29);
      a.addi(Reg::R11, Reg::R11, 1);
      a.jmp("lcc_loop");
      a.label("lcc_done");
      break;
    }
  }

  auto emit_data = [&]() {
    emit_data_str(a, "msg", spec.message, /*nul_terminate=*/false);
    emit_data_str(a, "logpath", "C:/Temp/keys.log");
    a.align(8);
    a.label("kbuf");
    a.zeros(16);
    a.align(8);
  };

  if (spec.erase_self) {
    // Transient variant: the data lives *inside* the erased range, so the
    // wipe leaves only the small eraser loop + epilogue resident — too
    // little for a one-shot memory snapshot to recognise.
    a.jmp("_erase_end");
    emit_data();
    a.label("_erase_end");
    a.addpc_label(Reg::R1, "_pstart");
    a.addpc_label(Reg::R2, "_erase_end");
    a.movi(Reg::R3, 0);
    a.label("erase_loop");
    a.cmp(Reg::R1, Reg::R2);
    a.bgeu("erase_done");
    a.st8(Reg::R1, 0, Reg::R3);
    a.addi(Reg::R1, Reg::R1, 1);
    a.jmp("erase_loop");
    a.label("erase_done");
  }

  switch (spec.ending) {
    case PayloadEnding::kExit: emit_exit(a, 0); break;
    case PayloadEnding::kRet:
      a.pop(Reg::LR);
      a.ret();
      break;
    case PayloadEnding::kLoopForever: {
      a.label("forever");
      emit_sys(a, Sys::kNtYield);
      a.jmp("forever");
      break;
    }
  }

  if (!spec.erase_self) emit_data();

  return a.assemble(0);
}

}  // namespace faros::attacks
