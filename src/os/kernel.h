// WinSim: the simulated guest operating system. Owns guest RAM, the frame
// allocator, the interpreter, the VFS, the network stack, the module
// registry and the process table; services syscalls natively.
//
// Whole-system taint fidelity: every byte the kernel moves on behalf of a
// process flows through copy helpers that publish semantic events on the
// MonitorBus (see src/introspection). The paper's FAROS achieves the same
// coverage by emulating kernel instructions; here the kernel is native, so
// the taint engine hooks the copies instead (substitution documented in
// DESIGN.md).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "introspection/monitor.h"
#include "os/image.h"
#include "os/netstack.h"
#include "os/process.h"
#include "os/syscalls.h"
#include "os/vfs.h"
#include "vm/cpu.h"
#include "vm/replay.h"

namespace faros::os {

struct Snapshot;  // os/snapshot.h

struct KernelConfig {
  u32 ram_bytes = 64u << 20;
  u32 guest_ip = 0;     // 0 -> default 169.254.57.168
  u64 rng_seed = 1;     // NtGetRandom stream (deterministic)
  u32 max_debug_lines = 4096;
  bool block_cache = true;  // block-translation cache (vm/btcache.h)
  /// When set, boot() restores this frozen booted-guest image (COW over
  /// its RAM) instead of building the kernel state from scratch; see
  /// os/snapshot.h for the determinism contract. The config must match
  /// the one the snapshot was captured from.
  std::shared_ptr<const Snapshot> snapshot;
};

/// OSI query surface (what PANDA's OSI plugin exposes): FAROS resolves the
/// CR3 on each executed instruction to a process identity through this.
class OsiQuery {
 public:
  virtual ~OsiQuery() = default;
  virtual std::optional<osi::ProcessInfo> process_by_cr3(PAddr cr3) const = 0;
  virtual std::vector<osi::ProcessInfo> process_list() const = 0;
};

class Kernel : public OsiQuery {
 public:
  explicit Kernel(const KernelConfig& cfg);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Creates the kernel address space, pre-builds the kernel-half page
  /// tables, and loads the runtime modules (ntdll, user32).
  Result<void> boot();

  // --- subsystem access ---
  Vfs& vfs() { return vfs_; }
  NetStack& net() { return net_; }
  osi::MonitorBus& monitors() { return monitors_; }
  vm::Interpreter& interp() { return interp_; }
  vm::PhysMem& phys_mem() { return mem_; }
  const vm::PhysMem& phys_mem() const { return mem_; }
  const vm::FrameAllocator& frame_alloc() const { return frames_; }
  const vm::AddressSpace& kernel_as() const { return kernel_as_; }
  const std::vector<osi::ModuleInfo>& modules() const { return modules_; }

  // --- process management ---
  /// Loads an SX32 image from the VFS and creates a process.
  Result<Pid> spawn(const std::string& path, bool suspended = false,
                    Pid parent = 0);
  Process* find(Pid pid);
  const Process* find(Pid pid) const;
  Process* find_by_name(const std::string& name);
  void terminate(Process& p, u32 exit_code);
  /// Number of processes that are not terminated (kept by spawn and
  /// terminate, so the per-round exit check is O(1)).
  u32 live_count() const { return live_count_; }

  // --- scheduling (driven by Machine) ---
  /// Next runnable process (round robin); completes satisfiable waits on
  /// the way. Returns nullptr when nothing can run.
  Process* pick_next();
  /// Runs `p` for at most `quantum` instructions; handles syscalls, traps
  /// and halts. Returns the number of instructions retired.
  u64 run_process(Process& p, u64 quantum);

  // --- external event delivery (from Machine record/replay) ---
  bool deliver_packet(const FlowTuple& flow, ByteSpan data);
  void deliver_device(u32 device_id, ByteSpan data);

  // --- OsiQuery ---
  std::optional<osi::ProcessInfo> process_by_cr3(PAddr cr3) const override;
  std::vector<osi::ProcessInfo> process_list() const override;

  /// Registers a DNS name for NtResolveHost (unknown names resolve to a
  /// deterministic hash-derived address).
  void add_dns(const std::string& host, u32 ip) { dns_[host] = ip; }
  u32 resolve_host(const std::string& host) const;

  /// All NtDebugPrint output, "<proc>: <text>" per line (test oracle).
  const std::vector<std::string>& console() const { return console_; }

  /// Trap diagnostics ("<proc> trapped: <kind> @pc").
  const std::vector<std::string>& trap_log() const { return trap_log_; }

  u64 syscall_count() const { return syscall_count_; }

 private:
  Result<void> boot_from_snapshot(const Snapshot& snap);
  Result<void> load_module(const Image& img);
  Result<void> map_and_copy(vm::AddressSpace& as, VAddr base, ByteSpan blob,
                            u32 final_flags);
  void dispatch_syscall(Process& p);
  /// Attempts to complete a blocked process' pending wait.
  bool try_complete_wait(Process& p);

  // Taint-aware guest copies: perform the raw copy, then publish the event.
  Result<void> copy_to_guest(Process& p, VAddr dst, ByteSpan data);
  Result<Bytes> copy_from_guest(Process& p, VAddr src, u32 len);

  Result<std::string> read_path_arg(Process& p, VAddr va);
  u32 alloc_handle(Process& p, Handle h);

  // Individual syscall families (implemented in kernel.cpp).
  void sys_file(Process& p, Sys num);
  void sys_memory(Process& p, Sys num);
  void sys_process(Process& p, Sys num);
  void sys_net(Process& p, Sys num);
  void sys_misc(Process& p, Sys num);

  KernelConfig cfg_;
  vm::PhysMem mem_;
  vm::FrameAllocator frames_;
  vm::Interpreter interp_;
  vm::AddressSpace kernel_as_;
  Vfs vfs_;
  NetStack net_;
  osi::MonitorBus monitors_;
  Rng rng_;

  // Processes are never erased and std::map nodes never move, so the
  // scheduler may hold plain pointers into procs_.
  std::map<Pid, Process> procs_;
  Pid next_pid_ = 100;
  u32 live_count_ = 0;
  std::vector<Process*> sched_order_;  // spawn order
  size_t sched_cursor_ = 0;

  std::vector<osi::ModuleInfo> modules_;
  std::map<u32, std::deque<Bytes>> device_queues_;
  std::map<std::string, u32> dns_;
  std::map<u32, Bytes> atoms_;  // global atom table (atom-bombing channel)
  u32 next_atom_ = 0xc000;

  std::vector<std::string> console_;
  std::vector<std::string> trap_log_;
  u64 syscall_count_ = 0;
  bool booted_ = false;
};

}  // namespace faros::os
