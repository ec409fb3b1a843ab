#include "attacks/guest_common.h"

#include "os/runtime.h"

namespace faros::attacks {

using os::Sys;
using vm::Assembler;
using vm::Reg;

void emit_sys(Assembler& a, Sys num) {
  a.movi(Reg::R0, static_cast<u32>(num));
  a.syscall_();
}

void emit_connect(Assembler& a, u32 ip, u16 port) {
  emit_sys(a, Sys::kNtSocket);
  a.mov(Reg::R10, Reg::R0);
  a.mov(Reg::R1, Reg::R10);
  a.movi(Reg::R2, ip);
  a.movi(Reg::R3, port);
  emit_sys(a, Sys::kNtConnect);
}

void emit_send_label(Assembler& a, const std::string& data_label, u32 len) {
  a.mov(Reg::R1, Reg::R10);
  a.movi_label(Reg::R2, data_label);
  a.movi(Reg::R3, len);
  emit_sys(a, Sys::kNtSend);
}

void emit_recv(Assembler& a, Reg buf_reg, u32 cap) {
  a.mov(Reg::R1, Reg::R10);
  a.mov(Reg::R2, buf_reg);
  a.movi(Reg::R3, cap);
  emit_sys(a, Sys::kNtRecv);
}

void emit_alloc_self(Assembler& a, u32 len, u32 prot) {
  a.movi(Reg::R1, 0);  // 0 = current process
  a.movi(Reg::R2, len);
  a.movi(Reg::R3, prot);
  emit_sys(a, Sys::kNtAllocateVirtualMemory);
}

void emit_export_walk(Assembler& a, const std::string& prefix,
                      u32 module_hash, u32 symbol_hash) {
  const std::string mod_loop = prefix + "_mod";
  const std::string next_mod = prefix + "_nextm";
  const std::string exp_loop = prefix + "_exp";
  const std::string next_exp = prefix + "_nexte";
  const std::string fail = prefix + "_fail";
  const std::string done = prefix + "_done";

  a.movi(Reg::R2, os::KernelLayout::kModuleDir);
  a.ld32(Reg::R3, Reg::R2, 0);  // module count
  a.movi(Reg::R4, 0);
  a.label(mod_loop);
  a.cmp(Reg::R4, Reg::R3);
  a.bgeu(fail);
  a.muli(Reg::R5, Reg::R4, os::KernelLayout::kModuleDirEntrySize);
  a.add(Reg::R5, Reg::R5, Reg::R2);
  a.addi(Reg::R5, Reg::R5, 4);
  a.ld32(Reg::R1, Reg::R5, 0);  // entry.name_hash
  a.cmpi(Reg::R1, static_cast<i32>(module_hash));
  a.bne(next_mod);
  a.ld32(Reg::R5, Reg::R5, 8);  // entry.exports_va
  a.ld32(Reg::R3, Reg::R5, 0);  // export count
  a.movi(Reg::R4, 0);
  a.label(exp_loop);
  a.cmp(Reg::R4, Reg::R3);
  a.bgeu(fail);
  a.muli(Reg::R1, Reg::R4, 8);
  a.add(Reg::R1, Reg::R1, Reg::R5);
  a.addi(Reg::R1, Reg::R1, 4);
  a.ld32(Reg::R0, Reg::R1, 0);  // export.hash
  a.cmpi(Reg::R0, static_cast<i32>(symbol_hash));
  a.bne(next_exp);
  a.ld32(Reg::R0, Reg::R1, 4);  // export.addr — the flagged confluence read
  a.jmp(done);
  a.label(next_exp);
  a.addi(Reg::R4, Reg::R4, 1);
  a.jmp(exp_loop);
  a.label(next_mod);
  a.addi(Reg::R4, Reg::R4, 1);
  a.jmp(mod_loop);
  a.label(fail);
  a.movi(Reg::R0, 0);
  a.label(done);
}

void emit_yield_loop(Assembler& a, const std::string& prefix,
                     u32 iterations) {
  const std::string loop = prefix + "_loop";
  const std::string done = prefix + "_done";
  a.movi(Reg::R11, 0);
  a.label(loop);
  a.cmpi(Reg::R11, static_cast<i32>(iterations));
  a.bgeu(done);
  emit_sys(a, Sys::kNtYield);
  a.addi(Reg::R11, Reg::R11, 1);
  a.jmp(loop);
  a.label(done);
}

void emit_busy_loop(Assembler& a, const std::string& prefix,
                    u32 iterations) {
  const std::string loop = prefix + "_busy";
  const std::string done = prefix + "_busyd";
  a.movi(Reg::R11, 0);
  a.movi(Reg::R5, 3);
  a.label(loop);
  a.cmpi(Reg::R11, static_cast<i32>(iterations));
  a.bgeu(done);
  a.muli(Reg::R5, Reg::R5, 1103515245);
  a.addi(Reg::R5, Reg::R5, 12345);
  a.shri(Reg::R6, Reg::R5, 16);
  a.xor_(Reg::R5, Reg::R5, Reg::R6);
  // A divu with an in-block constant divisor: not taint_inert (divide by
  // zero would trap), but offered for elision anyway, since the fast body
  // stops exactly at a trap. Models real compiler output, where hot loops
  // rarely stay free of every trapping opcode.
  a.movi(Reg::R7, 7);
  a.divu(Reg::R6, Reg::R5, Reg::R7);
  a.addi(Reg::R11, Reg::R11, 1);
  a.jmp(loop);
  a.label(done);
}

void emit_exit(Assembler& a, u32 code) {
  a.movi(Reg::R1, code);
  emit_sys(a, Sys::kNtExit);
}

}  // namespace faros::attacks
