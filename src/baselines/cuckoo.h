// CuckooBox + Volatility/malfind baseline (paper Section VI-B).
//
// CuckooSandboxSim is an event-based monitor: it records the syscall trace,
// file-system activity, network traffic and debug output — everything the
// real Cuckoo gathers from its API hooks — and takes a one-shot memory dump
// at the end of the run. Its behavioural verdict models what the paper
// observed: reflective loading bypasses DLL registration and drops no
// artifact, so event-based detection comes up empty.
//
// The Volatility-style analyses run against the dump:
//   * pslist  — process listing
//   * vadinfo — per-process region (VAD) listing
//   * malfind — private executable regions with live content: finds
//     *resident* injected code, misses *transient* payloads that erased
//     themselves before the dump, and never yields provenance.
#pragma once

#include <string>
#include <vector>

#include "introspection/monitor.h"
#include "os/kernel.h"

namespace faros::baselines {

struct SyscallRecord {
  u32 pid = 0;
  std::string proc;
  u32 number = 0;
  std::string name;
};

struct FileRecord {
  u32 pid = 0;
  std::string proc;
  std::string op;  // "read" / "write"
  std::string path;
  u32 len = 0;
};

struct NetRecord {
  u32 pid = 0;
  std::string proc;
  bool outbound = false;
  FlowTuple flow;
  u32 len = 0;
};

/// One process' memory as captured at dump time.
struct ProcessDump {
  osi::ProcessInfo proc;
  bool alive = false;
  std::vector<os::Region> regions;
  /// Region contents, parallel to `regions` (empty for dead processes).
  std::vector<Bytes> contents;
};

struct MemoryDump {
  std::vector<ProcessDump> processes;
  u64 taken_at_instr = 0;
};

struct MalfindHit {
  u32 pid = 0;
  std::string proc;
  VAddr base = 0;
  u32 len = 0;
  u32 live_bytes = 0;  // non-zero bytes found in the region
};

class CuckooSandboxSim : public osi::GuestMonitor,
                         public osi::SyscallObserver {
 public:
  // --- GuestMonitor + SyscallObserver (the API-hook surface) ---
  void on_syscall(const osi::SyscallEvent& ev) override;
  void on_process_start(const osi::ProcessInfo& p) override;
  void on_process_exit(const osi::ProcessInfo& p, u32 code) override;
  void on_file_read(const osi::GuestXfer& x, u32 id, const std::string& path,
                    u32 ver, u32 off) override;
  void on_file_write(const osi::GuestXfer& x, u32 id, const std::string& path,
                     u32 ver, u32 off) override;
  void on_packet_to_guest(const osi::GuestXfer& x, const FlowTuple& flow,
                          const osi::PacketMeta& meta = {}) override;
  void on_guest_send(const osi::GuestXfer& x, const FlowTuple& flow,
                     const osi::PacketMeta& meta = {}) override;
  void on_module_loaded(const osi::ModuleInfo& mod,
                        const vm::AddressSpace& as) override;
  void on_debug_print(const osi::ProcessInfo& p,
                      const std::string& text) override;

  // --- collected traces ---
  const std::vector<SyscallRecord>& syscalls() const { return syscalls_; }
  const std::vector<FileRecord>& files() const { return files_; }
  const std::vector<NetRecord>& netflows() const { return netflows_; }
  const std::vector<std::string>& process_events() const { return procs_; }
  const std::vector<std::string>& registered_dlls() const { return dlls_; }

  /// Event-based verdict (no memory analysis): did any easily observable
  /// artifact of an injection appear — a registered DLL load in a victim,
  /// or an executable image dropped to disk? In-memory-only attacks
  /// produce neither (the paper's point).
  bool behavioral_verdict() const;

  /// One-shot memory snapshot (call at the end of the sandbox run).
  static MemoryDump take_memory_dump(os::Kernel& kernel);

 private:
  std::vector<SyscallRecord> syscalls_;
  std::vector<FileRecord> files_;
  std::vector<NetRecord> netflows_;
  std::vector<std::string> procs_;
  std::vector<std::string> dlls_;
  std::vector<std::string> console_;
  bool dropped_executable_ = false;
};

/// Volatility-style analyses over the dump.
std::vector<std::string> pslist(const MemoryDump& dump);
std::vector<os::Region> vadinfo(const MemoryDump& dump, u32 pid);

/// malfind: private (non-image-backed) executable regions that still hold
/// live content. `min_live_bytes` models malfind's content heuristics
/// (PE-header / code-pattern matching): a region must retain a meaningful
/// body of code to match. A transient payload that wiped itself leaves
/// only a ~hundred-byte eraser stub and falls below the threshold — the
/// paper's point about one-shot memory snapshots.
std::vector<MalfindHit> malfind(const MemoryDump& dump,
                                u32 min_live_bytes = 128);

}  // namespace faros::baselines
