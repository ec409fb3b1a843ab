// Guest introspection interfaces — the reproduction's analogue of PANDA's
// `syscalls2` and `OSI/Win7x86intro` plugins, which FAROS consumes.
//
// The kernel (src/os) publishes semantic events through a GuestMonitor:
// process lifecycle, module loads (with guest-resident export tables), and
// — crucially for whole-system taint — every byte the kernel moves on
// behalf of a process (packet delivery, file I/O, cross-process writes). A
// MonitorBus fans the stream out to any number of attached analysis
// plugins (FAROS itself, the CuckooBox baseline, test probes). Raw syscall
// entry is a separate SyscallObserver interface: the kernel builds a
// SyscallEvent only when an attached monitor implements it.
//
// Events reference guest state (AddressSpace) that is only valid for the
// duration of the callback.
#pragma once

#include <string>
#include <vector>

#include "common/flow.h"
#include "common/types.h"
#include "vm/mmu.h"

namespace faros::osi {

using Pid = u32;

/// Process metadata snapshot (what OSI's `get_current_process` returns).
struct ProcessInfo {
  Pid pid = 0;
  Pid parent_pid = 0;
  PAddr cr3 = 0;
  std::string name;  // image name, e.g. "notepad.exe"
};

/// A loaded module with its guest-resident export table.
struct ModuleInfo {
  std::string name;  // "ntdll.dll"
  u32 name_hash = 0;
  VAddr base = 0;
  u32 size = 0;
  VAddr exports_va = 0;  // guest address of the export table structure
  u32 export_count = 0;
};

/// Syscall entry event with raw arguments (pointer arguments are
/// dereferenced by the individual semantic callbacks below).
struct SyscallEvent {
  ProcessInfo proc;
  u32 number = 0;
  const char* name = "?";
  u32 args[4] = {};
};

/// Transport metadata for packet events: the segment identity lets the
/// taint engine key per-byte packet shadows so provenance survives
/// loopback (guest-to-guest) transfers.
struct PacketMeta {
  u64 segment_id = 0;   // 0 = unknown/not tracked
  u32 segment_off = 0;  // offset of the first delivered byte in the segment
  bool loopback = false;
};

/// A kernel-mediated byte transfer touching guest memory. `as` translates
/// the guest-side address; for cross-process copies both sides are guest.
struct GuestXfer {
  ProcessInfo proc;          // the process on whose behalf the kernel acts
  const vm::AddressSpace* as = nullptr;
  VAddr va = 0;
  u32 len = 0;
};

/// Analysis plugin interface. Default implementations ignore everything.
class GuestMonitor {
 public:
  virtual ~GuestMonitor() = default;

  // --- process lifecycle (OSI) ---
  virtual void on_process_start(const ProcessInfo& proc) { (void)proc; }
  virtual void on_process_exit(const ProcessInfo& proc, u32 exit_code) {
    (void)proc;
    (void)exit_code;
  }

  // --- module loading: fires once per module with the export table already
  // materialised in guest memory (FAROS taints the function pointers).
  virtual void on_module_loaded(const ModuleInfo& mod,
                                const vm::AddressSpace& kernel_as) {
    (void)mod;
    (void)kernel_as;
  }

  // --- network ---
  /// Kernel copied `xfer.len` packet bytes into the guest buffer at
  /// `xfer.va`. The flow is the packet's 4-tuple (remote -> guest).
  virtual void on_packet_to_guest(const GuestXfer& xfer,
                                  const FlowTuple& flow,
                                  const PacketMeta& meta = {}) {
    (void)xfer;
    (void)flow;
    (void)meta;
  }
  /// Guest sent `xfer.len` bytes from `xfer.va` over `flow`
  /// (guest -> remote, or guest -> guest when meta.loopback).
  virtual void on_guest_send(const GuestXfer& xfer, const FlowTuple& flow,
                             const PacketMeta& meta = {}) {
    (void)xfer;
    (void)flow;
    (void)meta;
  }

  // --- file system ---
  /// Kernel copied file content into the guest buffer.
  virtual void on_file_read(const GuestXfer& xfer, u32 file_id,
                            const std::string& path, u32 version,
                            u32 file_offset) {
    (void)xfer;
    (void)file_id;
    (void)path;
    (void)version;
    (void)file_offset;
  }
  /// Kernel copied the guest buffer into file content.
  virtual void on_file_write(const GuestXfer& xfer, u32 file_id,
                             const std::string& path, u32 version,
                             u32 file_offset) {
    (void)xfer;
    (void)file_id;
    (void)path;
    (void)version;
    (void)file_offset;
  }
  /// An executable image backed by `path` was mapped at `base`.
  virtual void on_image_mapped(const ProcessInfo& proc,
                               const vm::AddressSpace& as, VAddr base,
                               u32 len, u32 file_id, const std::string& path,
                               u32 version) {
    (void)proc;
    (void)as;
    (void)base;
    (void)len;
    (void)file_id;
    (void)path;
    (void)version;
  }

  /// The loader resolved an import against a module's export table and
  /// wrote the function pointer into the image's IAT slot at `slot_va`.
  /// These pointers are *derived from* export-table data (the paper's
  /// Section V-B observation), so FAROS tags them like the tables
  /// themselves — defeating IAT-scanning evasions.
  virtual void on_iat_resolved(const ProcessInfo& proc,
                               const vm::AddressSpace& as, VAddr slot_va) {
    (void)proc;
    (void)as;
    (void)slot_va;
  }

  // --- cross-process memory (the injection surface) ---
  /// `src` process wrote `len` bytes from its `src.va` into `dst` process
  /// memory at `dst.va` (NtWriteVirtualMemory).
  virtual void on_cross_process_write(const GuestXfer& src,
                                      const GuestXfer& dst) {
    (void)src;
    (void)dst;
  }

  // --- global atom table (atom-bombing IPC) ---
  /// A process stored `xfer.len` bytes from its memory into atom `atom_id`.
  virtual void on_atom_write(const GuestXfer& xfer, u32 atom_id) {
    (void)xfer;
    (void)atom_id;
  }
  /// A process read atom `atom_id` into its memory at `xfer.va`.
  virtual void on_atom_read(const GuestXfer& xfer, u32 atom_id) {
    (void)xfer;
    (void)atom_id;
  }

  // --- devices ---
  virtual void on_device_read(const GuestXfer& xfer, u32 device_id) {
    (void)xfer;
    (void)device_id;
  }

  // --- memory hygiene: a physical frame was freed/recycled; any shadow
  // state covering it is stale and must be dropped.
  virtual void on_frame_recycled(PAddr frame_base) { (void)frame_base; }

  /// The kernel overwrote guest bytes on a process' behalf. Fires for
  /// *every* kernel->guest copy, before any more specific event (packet,
  /// file read, ...) re-taints the range: shadow state covering the range
  /// is stale. This is the native-kernel substitute for the tag-delete
  /// the paper's emulated kernel stores would have performed.
  virtual void on_kernel_write(const GuestXfer& xfer) { (void)xfer; }

  // --- guest diagnostics (NtDebugPrint; the "pop-up message" analogue) ---
  virtual void on_debug_print(const ProcessInfo& proc,
                              const std::string& text) {
    (void)proc;
    (void)text;
  }
};

/// syscalls2-style raw syscall entry, implemented beside GuestMonitor by
/// the plugins that want every syscall (the CuckooBox trace). Building the
/// event costs a ProcessInfo copy per syscall, so the kernel builds it
/// only when some attached monitor is an observer; FAROS is not one, and
/// an idle NtYield loop under it pays for no event.
class SyscallObserver {
 public:
  virtual ~SyscallObserver() = default;
  virtual void on_syscall(const SyscallEvent& ev) = 0;
};

/// Fans events out to registered monitors in registration order. A
/// monitor that is also a SyscallObserver is registered for syscall entry
/// by attach() and unregistered by detach().
class MonitorBus : public GuestMonitor {
 public:
  void attach(GuestMonitor* m);
  void detach(GuestMonitor* m);
  size_t count() const { return monitors_.size(); }

  /// Whether any attached monitor observes syscall entry.
  bool observes_syscalls() const { return !observers_.empty(); }
  void on_syscall(const SyscallEvent& ev);

  void on_process_start(const ProcessInfo& p) override;
  void on_process_exit(const ProcessInfo& p, u32 code) override;
  void on_module_loaded(const ModuleInfo& m,
                        const vm::AddressSpace& as) override;
  void on_packet_to_guest(const GuestXfer& x, const FlowTuple& f,
                          const PacketMeta& meta = {}) override;
  void on_guest_send(const GuestXfer& x, const FlowTuple& f,
                     const PacketMeta& meta = {}) override;
  void on_file_read(const GuestXfer& x, u32 id, const std::string& path,
                    u32 ver, u32 off) override;
  void on_file_write(const GuestXfer& x, u32 id, const std::string& path,
                     u32 ver, u32 off) override;
  void on_image_mapped(const ProcessInfo& p, const vm::AddressSpace& as,
                       VAddr base, u32 len, u32 id, const std::string& path,
                       u32 ver) override;
  void on_iat_resolved(const ProcessInfo& p, const vm::AddressSpace& as,
                       VAddr slot_va) override;
  void on_cross_process_write(const GuestXfer& s, const GuestXfer& d) override;
  void on_atom_write(const GuestXfer& x, u32 atom_id) override;
  void on_atom_read(const GuestXfer& x, u32 atom_id) override;
  void on_device_read(const GuestXfer& x, u32 dev) override;
  void on_frame_recycled(PAddr frame) override;
  void on_kernel_write(const GuestXfer& x) override;
  void on_debug_print(const ProcessInfo& p, const std::string& text) override;

 private:
  std::vector<GuestMonitor*> monitors_;
  std::vector<SyscallObserver*> observers_;
};

}  // namespace faros::osi
