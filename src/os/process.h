// Kernel process objects: address space, CPU context, handle table, memory
// region list (the VAD-tree analogue the malfind baseline inspects), and
// blocking state.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "introspection/monitor.h"
#include "vm/cpu.h"
#include "vm/mmu.h"

namespace faros::os {

using Pid = osi::Pid;

enum class ProcState {
  kReady,
  kBlocked,     // waiting on recv/device/process-exit
  kSuspended,   // created suspended or NtSuspendProcess'd
  kTerminated,
};

const char* proc_state_name(ProcState s);

/// Memory region bookkeeping (Windows VAD analogue). The CuckooBox/malfind
/// baseline walks this plus the page tables to find suspicious regions.
struct Region {
  enum class Kind { kImage, kStack, kHeap, kAlloc };
  Kind kind = Kind::kAlloc;
  VAddr base = 0;
  u32 len = 0;
  u32 prot = 0;          // SysProt bits
  std::string tag;       // image path for kImage
};

const char* region_kind_name(Region::Kind k);

struct Handle {
  enum class Kind { kFile, kSocket };
  Kind kind = Kind::kFile;
  std::string path;  // files
  u32 sock_id = 0;   // sockets
  u32 pos = 0;       // file cursor
};

struct Process {
  Pid pid = 0;
  Pid parent = 0;
  std::string name;        // "notepad.exe"
  std::string image_path;  // VFS path it was loaded from
  vm::AddressSpace as;
  vm::CpuState cpu;
  ProcState state = ProcState::kReady;
  u32 exit_code = 0;
  /// Blocked in a syscall, which still sits in r0..r4 and reruns on
  /// wake-up; kept across suspend so resume puts the process back to wait.
  bool in_syscall = false;
  std::map<u32, Handle> handles;
  u32 next_handle = 4;
  VAddr alloc_cursor = 0;  // bump allocator for NtAllocateVirtualMemory
  std::vector<Region> regions;
  u64 instr_retired = 0;  // per-process CPU accounting

  osi::ProcessInfo info() const {
    return osi::ProcessInfo{pid, parent, as.cr3(), name};
  }

  Region* region_containing(VAddr va) {
    for (auto& r : regions) {
      if (va >= r.base && va < r.base + r.len) return &r;
    }
    return nullptr;
  }

  bool alive() const { return state != ProcState::kTerminated; }
};

}  // namespace faros::os
