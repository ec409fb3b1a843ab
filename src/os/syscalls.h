// WinSim syscall numbers, ABI and the one syscall table.
//
// ABI: service number in r0, arguments in r1..r4, result in r0
// (kNtError = 0xffffffff signals failure). Pointer arguments are guest
// virtual addresses in the calling process.
//
// Every number has one row in syscall_table() (kernel_syscalls.cpp): its
// name and its handler. A handler returns the r0 result or kBlocked; a
// handler that blocks has changed nothing, and the scheduler wakes the
// process by running the same row again (DESIGN.md §3k).
//
// The file-system group deliberately mirrors the paper's observation that
// FAROS hooks "26 filesystem-related system calls" — the semantic file
// events FAROS needs (which bytes moved between guest memory and which
// file) are emitted from these handlers.
#pragma once

#include <optional>
#include <span>

#include "common/types.h"

namespace faros::os {

class Kernel;
struct Process;

inline constexpr u32 kNtError = 0xffffffffu;

enum class Sys : u32 {
  // --- file system ---
  kNtCreateFile = 1,      // r1=path ptr -> handle
  kNtOpenFile = 2,        // r1=path ptr -> handle
  kNtReadFile = 3,        // r1=h, r2=buf, r3=len -> n
  kNtWriteFile = 4,       // r1=h, r2=buf, r3=len -> n
  kNtCloseHandle = 5,     // r1=h
  kNtDeleteFile = 6,      // r1=path ptr
  kNtSeekFile = 7,        // r1=h, r2=offset
  kNtQueryFileSize = 8,   // r1=h -> size
  kNtRenameFile = 9,      // r1=old path ptr, r2=new path ptr
  kNtTruncateFile = 10,   // r1=h, r2=size
  kNtFlushFile = 11,      // r1=h (no-op)
  kNtQueryFileVersion = 12,  // r1=h -> access version
  kNtReadFileAt = 13,     // r1=h, r2=off, r3=buf, r4=len -> n
  kNtWriteFileAt = 14,    // r1=h, r2=off, r3=buf, r4=len -> n
  kNtQueryFileExists = 15,  // r1=path ptr -> 1/0

  // --- virtual memory ---
  kNtAllocateVirtualMemory = 20,  // r1=pid(0=self), r2=len, r3=prot -> va
  kNtProtectVirtualMemory = 21,   // r1=pid, r2=va, r3=len, r4=prot
  kNtFreeVirtualMemory = 22,      // r1=pid, r2=va, r3=len
  kNtReadVirtualMemory = 23,      // r1=pid, r2=remote va, r3=local buf, r4=len
  kNtWriteVirtualMemory = 24,     // r1=pid, r2=remote va, r3=local buf, r4=len
  kNtUnmapViewOfSection = 25,     // r1=pid, r2=va inside the image region

  // --- processes ---
  kNtCreateProcess = 30,       // r1=path ptr, r2=flags (1=suspended) -> pid
  kNtSuspendProcess = 31,      // r1=pid
  kNtResumeProcess = 32,       // r1=pid
  kNtTerminateProcess = 33,    // r1=pid, r2=exit code
  kNtSetEntryPoint = 34,       // r1=pid, r2=va (SetThreadContext analogue)
  kNtGetCurrentPid = 35,       // -> pid
  kNtWaitProcess = 36,         // r1=pid -> exit code (blocks)
  kNtOpenProcessByName = 37,   // r1=name ptr -> pid
  kNtQueryProcessList = 38,    // r1=buf (u32 array), r2=max entries -> count

  // --- network ---
  kNtSocket = 40,    // -> handle
  kNtConnect = 41,   // r1=h, r2=ip, r3=port
  kNtBind = 42,      // r1=h, r2=port
  kNtSend = 43,      // r1=h, r2=buf, r3=len -> n
  kNtRecv = 44,      // r1=h, r2=buf, r3=len -> n (blocks when empty)
  kNtPollRecv = 45,  // r1=h -> bytes available
  kNtResolveHost = 46,  // r1=hostname ptr -> IPv4 (deterministic)

  // --- devices & misc ---
  kNtReadDevice = 50,   // r1=dev id, r2=buf, r3=len -> n (blocks)
  kNtDebugPrint = 51,   // r1=buf, r2=len
  kNtGetTick = 52,      // -> low 32 bits of the instruction counter
  kNtYield = 53,
  kNtGetRandom = 54,    // r1=buf, r2=len (deterministic boot-seeded PRNG)
  kNtExit = 55,         // r1=exit code (terminates self)
  kNtGetModuleDirectory = 56,  // -> va of the kernel module directory
  kNtLoadLibrary = 57,  // r1=name ptr -> module base (must be preloaded)

  // --- global atom table (the atom-bombing IPC channel) ---
  kNtAddAtom = 58,   // r1=buf, r2=len -> atom id
  kNtGetAtom = 59,   // r1=atom id, r2=buf, r3=cap -> len
};

/// Device ids for NtReadDevice.
enum class DeviceId : u32 {
  kKeyboard = 1,
  kMicrophone = 2,
  kScreen = 3,
};

/// A syscall handler's outcome: the value for r0, or kBlocked.
using SysResult = std::optional<u32>;
inline constexpr std::nullopt_t kBlocked = std::nullopt;

/// r1..r4 of the calling process.
struct SysArgs {
  u32 a1, a2, a3, a4;
};

struct SyscallRow {
  Sys number;
  const char* name;
  SysResult (*handler)(Kernel& k, Process& p, SysArgs a);
};

/// One row per Sys enumerator, in ascending number order.
std::span<const SyscallRow> syscall_table();
/// The row of `number`, or nullptr for a number no row has.
const SyscallRow* find_syscall(u32 number);
/// The row's name, or "NtUnknown".
const char* syscall_name(u32 number);

/// Memory protection bits for the VM syscalls (translated to PTE flags).
enum SysProt : u32 {
  kProtRead = 1,
  kProtWrite = 2,
  kProtExec = 4,
};

}  // namespace faros::os
