// Shared guest-code emitters used by every workload and attack program:
// syscall invocation, C2 connection boilerplate, the injection idioms every
// attack is assembled from (download stanza, guest copy loop, remote-inject
// sequence, data-tail strings), and the inline export-table walk that
// reflective payloads use to link themselves (the detection surface of the
// whole reproduction). Each idiom is emitted here once; scenarios and
// program builders call these instead of re-typing the instructions.
#pragma once

#include <string>

#include "os/syscalls.h"
#include "vm/assembler.h"

namespace faros::attacks {

/// Default attacker endpoint (paper Table II: 169.254.26.161:4444).
inline constexpr u32 kAttackerIp = 0xa9fe1aa1;  // 169.254.26.161
inline constexpr u16 kAttackerPort = 4444;

/// Emits `movi r0, <num>; syscall` — args must already be in r1..r4.
/// Result lands in r0.
void emit_sys(vm::Assembler& a, os::Sys num);

/// Emits: r10 = socket handle, connected to (ip, port).
/// Clobbers r0..r3.
void emit_connect(vm::Assembler& a, u32 ip, u16 port);

/// Emits: r10 = socket handle, bound to local `port`. Clobbers r0..r2.
void emit_bind(vm::Assembler& a, u16 port);

/// Emits: send `len` bytes at label `data_label` over socket in r10
/// (non-PIC: uses the absolute label address). Clobbers r0..r3.
void emit_send_label(vm::Assembler& a, const std::string& data_label,
                     u32 len);

/// Emits: blocking recv into `buf_reg` (a register holding the buffer
/// address), up to `cap` bytes, over socket in r10; received length in r0.
void emit_recv(vm::Assembler& a, vm::Reg buf_reg, u32 cap);

/// Emits: r0 = NtAllocateVirtualMemory(self, len, prot) — a fresh region
/// of `len` bytes in the *calling* process. Clobbers r1..r3.
void emit_alloc_self(vm::Assembler& a, u32 len, u32 prot);

/// The request every downloader sends to the attacker endpoint.
inline constexpr const char* kGetRequest = "GET";

/// Emits the download stanza: r10 = a socket connected to the attacker
/// endpoint (when `connect` is false the caller has connected r10), the
/// `request` at label "req" sent on it, r9 = a fresh RW buffer of `cap`
/// bytes, and r8 = the length of the one response received into it.
/// Clobbers r0..r3. emit_request_data puts the request in the data tail.
void emit_download(vm::Assembler& a, const std::string& request = kGetRequest,
                   u32 cap = 4096, bool connect = true);

/// Emits the download stanza's data: `request` at label "req".
void emit_request_data(vm::Assembler& a,
                       const std::string& request = kGetRequest);

/// Emits a byte-by-byte guest copy of r8 bytes from r9 to r6, so every
/// byte's taint travels with it. Clobbers r4, r5, r7.
void emit_copy_loop(vm::Assembler& a);

/// Emits the remote-inject sequence: r7 = the process named by the string
/// at label "target" (addressed PC-relative when `pc_relative`, for
/// position-independent code), suspended first when `suspend`; r6 = a
/// fresh 4096-byte RWX region in it; r8 bytes from r9 written there; its
/// entry point redirected to r6; resumed when `suspend`. Clobbers r0..r7.
void emit_remote_inject(vm::Assembler& a, bool suspend, bool pc_relative);

/// Emits one data-tail string: `align(8); label: text`.
void emit_data_str(vm::Assembler& a, const std::string& label,
                   const std::string& text, bool nul_terminate = true);

/// Emits an inline, position-independent export-table walk: resolves
/// `module!symbol` by scanning the kernel module directory and the module's
/// export table with guest LD32 instructions, leaving the resolved address
/// in r0 (0 if not found). Clobbers r1..r5. `prefix` uniquifies labels.
///
/// When these instructions execute from network- or foreign-process-tainted
/// memory, the final LD32 (which reads the export-table-tagged function
/// pointer) is exactly the tag confluence FAROS flags.
void emit_export_walk(vm::Assembler& a, const std::string& prefix,
                      u32 module_hash, u32 symbol_hash);

/// Emits a bounded busy/yield loop (keeps a benign process alive and
/// scheduled without blocking).
void emit_yield_loop(vm::Assembler& a, const std::string& prefix,
                     u32 iterations);

/// Emits a pure-compute loop (`iterations` rounds of multiply/add/shift) —
/// models an application's event loop doing real work. Clobbers r5-r7, r11.
void emit_busy_loop(vm::Assembler& a, const std::string& prefix,
                    u32 iterations);

/// Emits NtExit(code).
void emit_exit(vm::Assembler& a, u32 code = 0);

}  // namespace faros::attacks
