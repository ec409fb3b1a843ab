// The syscall table: one row {Sys, name, handler} per syscall number.
// ABI: number in r0, args in r1..r4, result in r0 (kNtError on failure).
// Every byte moved between kernel objects and guest memory is published on
// the MonitorBus so the taint engine stays sound across the (native)
// kernel. A handler that returns kBlocked must not have changed anything:
// the scheduler wakes the process by running the same handler again.
#include <array>

#include "common/strings.h"
#include "os/kernel.h"
#include "os/runtime.h"

namespace faros::os {

using vm::kPteExec;
using vm::kPteUser;
using vm::kPteWrite;

namespace {
constexpr u32 kMaxIoLen = 1u << 20;
constexpr u32 kMaxAllocLen = 16u << 20;
/// Kernel::console() keeps the first this many NtDebugPrint lines.
constexpr u32 kMaxConsoleLines = 4096;
/// NtAddAtom stores at most this many bytes per atom, and fails once the
/// global table holds kMaxAtoms atoms: at most 16 MiB of atom data.
constexpr u32 kMaxAtomLen = 4096;
constexpr u32 kMaxAtoms = 4096;

u32 prot_to_pte(u32 prot) {
  u32 flags = kPteUser;
  if (prot & kProtWrite) flags |= kPteWrite;
  if (prot & kProtExec) flags |= kPteExec;
  return flags;
}

Handle* get_handle(Process& p, u32 h, Handle::Kind kind) {
  auto it = p.handles.find(h);
  if (it == p.handles.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

/// Whether [va, va + len) lies below the kernel half, whose page tables
/// every process shares: no VM syscall may map, protect or free there.
bool user_range(VAddr va, u32 len) {
  return va < vm::kKernelBase && len <= vm::kKernelBase - va;
}

void erase_region(Process& t, VAddr base) {
  std::erase_if(t.regions,
                [&](const Region& reg) { return reg.base == base; });
}

}  // namespace

struct SyscallHandlers {
  // --- file system ---

  static SysResult file_read(Kernel& k, Process& p, Handle* h, u32 offset,
                             VAddr buf, u32 len, bool advance) {
    if (!h || len > kMaxIoLen) return kNtError;
    auto st = k.vfs_.stat(h->path);
    if (!st.ok()) return kNtError;
    Bytes tmp(len);
    auto n = k.vfs_.read_at(h->path, offset, tmp);
    if (!n.ok()) return kNtError;
    const u32 got = n.value();
    if (got > 0) {
      if (!k.copy_to_guest(p, buf, ByteSpan(tmp.data(), got)).ok()) {
        return kNtError;
      }
      osi::GuestXfer xfer{p.info(), &p.as, buf, got};
      k.monitors_.on_file_read(xfer, st.value().file_id, h->path,
                               st.value().version, offset);
    }
    if (advance) h->pos = offset + got;
    return got;
  }

  static SysResult file_write(Kernel& k, Process& p, Handle* h, u32 offset,
                              VAddr buf, u32 len, bool advance) {
    if (!h || len > kMaxIoLen) return kNtError;
    auto data = k.copy_from_guest(p, buf, len);
    if (!data.ok()) return kNtError;
    if (!k.vfs_.write_at(h->path, offset, data.value()).ok()) return kNtError;
    auto st = k.vfs_.stat(h->path);
    if (st.ok()) {
      osi::GuestXfer xfer{p.info(), &p.as, buf, len};
      k.monitors_.on_file_write(xfer, st.value().file_id, h->path,
                                st.value().version, offset);
    }
    if (advance) h->pos = offset + len;
    return len;
  }

  static SysResult file_open(Kernel& k, Process& p, VAddr path_va,
                             bool create) {
    auto path = k.read_path_arg(p, path_va);
    if (!path.ok()) return kNtError;
    if (!k.vfs_.exists(path.value())) {
      if (!create) return kNtError;
      k.vfs_.create(path.value());
    }
    (void)k.vfs_.touch(path.value());
    return k.alloc_handle(p, Handle{Handle::Kind::kFile, path.value(), 0, 0});
  }

  static SysResult create_file(Kernel& k, Process& p, SysArgs a) {
    return file_open(k, p, a.a1, /*create=*/true);
  }
  static SysResult open_file(Kernel& k, Process& p, SysArgs a) {
    return file_open(k, p, a.a1, /*create=*/false);
  }
  static SysResult read_file(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    return file_read(k, p, h, h ? h->pos : 0, a.a2, a.a3, /*advance=*/true);
  }
  static SysResult write_file(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    return file_write(k, p, h, h ? h->pos : 0, a.a2, a.a3,
                      /*advance=*/true);
  }
  static SysResult read_file_at(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    return file_read(k, p, h, a.a2, a.a3, a.a4, /*advance=*/false);
  }
  static SysResult write_file_at(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    return file_write(k, p, h, a.a2, a.a3, a.a4, /*advance=*/false);
  }

  static SysResult close_handle(Kernel& k, Process& p, SysArgs a) {
    auto it = p.handles.find(a.a1);
    if (it == p.handles.end()) return kNtError;
    if (it->second.kind == Handle::Kind::kSocket) {
      (void)k.net_.close(it->second.sock_id);
    }
    p.handles.erase(it);
    return 0;
  }

  static SysResult delete_file(Kernel& k, Process& p, SysArgs a) {
    auto path = k.read_path_arg(p, a.a1);
    if (!path.ok() || !k.vfs_.remove(path.value()).ok()) return kNtError;
    return 0;
  }

  static SysResult seek_file(Kernel&, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    if (!h) return kNtError;
    h->pos = a.a2;
    return a.a2;
  }

  static SysResult query_file_size(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    if (!h) return kNtError;
    auto st = k.vfs_.stat(h->path);
    return st.ok() ? st.value().size : kNtError;
  }

  static SysResult rename_file(Kernel& k, Process& p, SysArgs a) {
    auto from = k.read_path_arg(p, a.a1);
    auto to = k.read_path_arg(p, a.a2);
    if (!from.ok() || !to.ok()) return kNtError;
    return k.vfs_.rename(from.value(), to.value()).ok() ? 0 : kNtError;
  }

  static SysResult truncate_file(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    if (!h) return kNtError;
    return k.vfs_.truncate(h->path, a.a2).ok() ? 0 : kNtError;
  }

  static SysResult flush_file(Kernel&, Process& p, SysArgs a) {
    return get_handle(p, a.a1, Handle::Kind::kFile) ? 0 : kNtError;
  }

  static SysResult query_file_version(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kFile);
    if (!h) return kNtError;
    auto st = k.vfs_.stat(h->path);
    return st.ok() ? st.value().version : kNtError;
  }

  static SysResult query_file_exists(Kernel& k, Process& p, SysArgs a) {
    auto path = k.read_path_arg(p, a.a1);
    if (!path.ok()) return kNtError;
    return k.vfs_.exists(path.value()) ? 1 : 0;
  }

  // --- virtual memory (r1 = target pid, 0 = self) ---

  static Process* target(Kernel& k, Process& p, u32 pid) {
    if (pid == 0 || pid == p.pid) return &p;
    Process* t = k.find(pid);
    return (t && t->alive()) ? t : nullptr;
  }

  static SysResult allocate_vm(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    const u32 len = a.a2, prot = a.a3;
    if (!t || len == 0 || len > kMaxAllocLen) return kNtError;
    const VAddr va = t->alloc_cursor;
    if (!user_range(va, len) ||
        !t->as.map_alloc(va, len, prot_to_pte(prot)).ok()) {
      return kNtError;
    }
    const u32 span = vm::page_ceil(len);
    t->alloc_cursor = va + span + vm::kPageSize;  // guard gap
    t->regions.push_back(Region{Region::Kind::kAlloc, va, span, prot, ""});
    return va;
  }

  static SysResult protect_vm(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    if (!t || !user_range(a.a2, a.a3) ||
        !t->as.protect_range(a.a2, a.a3, prot_to_pte(a.a4)).ok()) {
      return kNtError;
    }
    if (Region* reg = t->region_containing(a.a2)) reg->prot = a.a4;
    return 0;
  }

  static SysResult free_vm(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    if (!t || !user_range(a.a2, a.a3) ||
        !t->as.unmap_range(a.a2, a.a3, /*free_frames=*/true).ok()) {
      return kNtError;
    }
    erase_region(*t, a.a2);
    return 0;
  }

  /// Copies `len` bytes from `src` (at `src_va`) to `dst` (at `dst_va`);
  /// exactly one of the two is the caller.
  static SysResult cross_copy(Kernel& k, Process& src, VAddr src_va,
                              Process& dst, VAddr dst_va, u32 len) {
    if (&src == &dst || len > kMaxIoLen) return kNtError;
    auto data = k.copy_from_guest(src, src_va, len);
    if (!data.ok()) return kNtError;
    if (!k.copy_to_guest(dst, dst_va, data.value()).ok()) return kNtError;
    k.monitors_.on_cross_process_write(
        osi::GuestXfer{src.info(), &src.as, src_va, len},
        osi::GuestXfer{dst.info(), &dst.as, dst_va, len});
    return len;
  }

  static SysResult read_vm(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    if (!t) return kNtError;
    return cross_copy(k, *t, a.a2, p, a.a3, a.a4);
  }

  static SysResult write_vm(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    if (!t) return kNtError;
    return cross_copy(k, p, a.a3, *t, a.a2, a.a4);
  }

  static SysResult unmap_view(Kernel& k, Process& p, SysArgs a) {
    Process* t = target(k, p, a.a1);
    if (!t) return kNtError;
    Region* reg = t->region_containing(a.a2);
    if (!reg || reg->kind != Region::Kind::kImage ||
        !t->as.unmap_range(reg->base, reg->len, /*free_frames=*/true).ok()) {
      return kNtError;
    }
    erase_region(*t, reg->base);
    return 0;
  }

  // --- processes ---

  static SysResult create_process(Kernel& k, Process& p, SysArgs a) {
    auto path = k.read_path_arg(p, a.a1);
    if (!path.ok()) return kNtError;
    auto pid = k.spawn(path.value(), (a.a2 & 1) != 0, p.pid);
    return pid.ok() ? pid.value() : kNtError;
  }

  static SysResult suspend_process(Kernel& k, Process&, SysArgs a) {
    Process* t = k.find(a.a1);
    if (!t || !t->alive()) return kNtError;
    t->state = ProcState::kSuspended;
    return 0;
  }

  static SysResult resume_process(Kernel& k, Process&, SysArgs a) {
    Process* t = k.find(a.a1);
    if (!t || t->state != ProcState::kSuspended) return kNtError;
    t->state = t->in_syscall ? ProcState::kBlocked : ProcState::kReady;
    return 0;
  }

  static SysResult terminate_process(Kernel& k, Process&, SysArgs a) {
    Process* t = k.find(a.a1);
    if (!t || !t->alive()) return kNtError;
    k.terminate(*t, a.a2);
    return 0;
  }

  static SysResult set_entry_point(Kernel& k, Process&, SysArgs a) {
    Process* t = k.find(a.a1);
    if (!t || !t->alive()) return kNtError;
    t->cpu.set_pc(a.a2);
    return 0;
  }

  static SysResult get_current_pid(Kernel&, Process& p, SysArgs) {
    return p.pid;
  }

  static SysResult wait_process(Kernel& k, Process&, SysArgs a) {
    const Process* t = k.find(a.a1);
    if (!t) return kNtError;
    if (t->alive()) return kBlocked;
    return t->exit_code;
  }

  static SysResult open_process_by_name(Kernel& k, Process& p, SysArgs a) {
    auto name = k.read_path_arg(p, a.a1);
    if (!name.ok()) return kNtError;
    const Process* t = k.find_by_name(name.value());
    return t ? t->pid : kNtError;
  }

  /// r1 = u32 array, r2 = capacity in entries -> count written.
  static SysResult query_process_list(Kernel& k, Process& p, SysArgs a) {
    const u32 cap = std::min<u32>(a.a2, 256);
    ByteWriter w;
    u32 count = 0;
    for (const auto& [pid, t] : k.procs_) {
      if (count == cap) break;
      if (!t.alive()) continue;
      w.put_u32(pid);
      ++count;
    }
    if (!k.copy_to_guest(p, a.a1, w.bytes()).ok()) return kNtError;
    return count;
  }

  // --- network ---

  static SysResult socket(Kernel& k, Process& p, SysArgs) {
    const SocketId sid = k.net_.create(p.pid);
    return k.alloc_handle(p, Handle{Handle::Kind::kSocket, "", sid, 0});
  }

  static SysResult connect(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kSocket);
    if (!h) return kNtError;
    return k.net_.connect(h->sock_id, a.a2, static_cast<u16>(a.a3)).ok()
               ? 0
               : kNtError;
  }

  static SysResult bind(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kSocket);
    if (!h) return kNtError;
    return k.net_.bind(h->sock_id, static_cast<u16>(a.a2)).ok() ? 0
                                                                : kNtError;
  }

  static SysResult send(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kSocket);
    if (!h || a.a3 > kMaxIoLen) return kNtError;
    auto data = k.copy_from_guest(p, a.a2, a.a3);
    if (!data.ok()) return kNtError;
    auto pkt =
        k.net_.send(h->sock_id, data.value(), k.interp_.instr_count());
    if (!pkt.ok()) return kNtError;
    osi::GuestXfer xfer{p.info(), &p.as, a.a2, a.a3};
    osi::PacketMeta meta{pkt.value().segment_id, 0, pkt.value().loopback};
    k.monitors_.on_guest_send(xfer, pkt.value().flow, meta);
    return a.a3;
  }

  /// Blocks while the socket's queue is empty.
  static SysResult recv(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kSocket);
    if (!h || a.a3 > kMaxIoLen) return kNtError;
    auto avail = k.net_.rx_available(h->sock_id);
    if (!avail.ok()) return kNtError;
    if (avail.value() == 0) return kBlocked;
    Bytes tmp(a.a3);
    FlowTuple flow;
    u64 seg_id = 0;
    u32 seg_off = 0;
    auto n = k.net_.read_rx(h->sock_id, tmp, &flow, &seg_id, &seg_off);
    if (!n.ok()) return kNtError;
    const u32 got = n.value();
    if (got > 0) {
      if (!k.copy_to_guest(p, a.a2, ByteSpan(tmp.data(), got)).ok()) {
        return kNtError;
      }
      osi::GuestXfer xfer{p.info(), &p.as, a.a2, got};
      osi::PacketMeta meta{seg_id, seg_off,
                           flow.src_ip == k.net_.guest_ip()};
      k.monitors_.on_packet_to_guest(xfer, flow, meta);
    }
    return got;
  }

  static SysResult poll_recv(Kernel& k, Process& p, SysArgs a) {
    Handle* h = get_handle(p, a.a1, Handle::Kind::kSocket);
    if (!h) return kNtError;
    auto avail = k.net_.rx_available(h->sock_id);
    return avail.ok() ? avail.value() : kNtError;
  }

  static SysResult resolve_host(Kernel& k, Process& p, SysArgs a) {
    auto host = k.read_path_arg(p, a.a1);
    if (!host.ok()) return kNtError;
    return k.resolve_host(host.value());
  }

  // --- devices & misc ---

  /// Blocks while the device's queue is empty.
  static SysResult read_device(Kernel& k, Process& p, SysArgs a) {
    if (a.a3 > kMaxIoLen) return kNtError;
    auto it = k.device_queues_.find(a.a1);
    if (it == k.device_queues_.end() || it->second.empty()) return kBlocked;
    Bytes& front = it->second.front();
    const u32 n = std::min<u32>(a.a3, static_cast<u32>(front.size()));
    if (n > 0) {
      if (!k.copy_to_guest(p, a.a2, ByteSpan(front.data(), n)).ok()) {
        return kNtError;
      }
      osi::GuestXfer xfer{p.info(), &p.as, a.a2, n};
      k.monitors_.on_device_read(xfer, a.a1);
    }
    if (n == front.size()) {
      it->second.pop_front();
    } else {
      front.erase(front.begin(), front.begin() + n);
    }
    return n;
  }

  static SysResult debug_print(Kernel& k, Process& p, SysArgs a) {
    auto data = k.copy_from_guest(p, a.a1, std::min<u32>(a.a2, 1024));
    if (!data.ok()) return kNtError;
    std::string text(data.value().begin(), data.value().end());
    if (k.console_.size() < kMaxConsoleLines) {
      k.console_.push_back(p.name + ": " + text);
    }
    k.monitors_.on_debug_print(p.info(), text);
    return 0;
  }

  static SysResult get_tick(Kernel& k, Process&, SysArgs) {
    return static_cast<u32>(k.interp_.instr_count() & 0xffffffffu);
  }

  static SysResult yield(Kernel&, Process&, SysArgs) { return 0; }

  static SysResult get_random(Kernel& k, Process& p, SysArgs a) {
    const u32 len = std::min<u32>(a.a2, 4096);
    if (!k.copy_to_guest(p, a.a1, k.rng_.bytes(len)).ok()) return kNtError;
    return len;
  }

  static SysResult exit(Kernel& k, Process& p, SysArgs a) {
    k.terminate(p, a.a1);
    return kNtError;
  }

  static SysResult get_module_directory(Kernel&, Process&, SysArgs) {
    return KernelLayout::kModuleDir;
  }

  static SysResult load_library(Kernel& k, Process& p, SysArgs a) {
    auto name = k.read_path_arg(p, a.a1);
    if (!name.ok()) return kNtError;
    const u32 hash = fnv1a32(name.value());
    for (const auto& m : k.modules_) {
      if (m.name_hash == hash) return m.base;
    }
    return kNtError;
  }

  // --- global atom table ---

  static SysResult add_atom(Kernel& k, Process& p, SysArgs a) {
    if (a.a2 == 0 || a.a2 > kMaxAtomLen || k.atoms_.size() >= kMaxAtoms) {
      return kNtError;
    }
    auto data = k.copy_from_guest(p, a.a1, a.a2);
    if (!data.ok()) return kNtError;
    const u32 atom = k.next_atom_++;
    k.atoms_[atom] = std::move(data).take();
    osi::GuestXfer xfer{p.info(), &p.as, a.a1, a.a2};
    k.monitors_.on_atom_write(xfer, atom);
    return atom;
  }

  static SysResult get_atom(Kernel& k, Process& p, SysArgs a) {
    auto it = k.atoms_.find(a.a1);
    if (it == k.atoms_.end() || a.a3 > kMaxIoLen) return kNtError;
    const u32 n = std::min<u32>(a.a3, static_cast<u32>(it->second.size()));
    if (n > 0) {
      if (!k.copy_to_guest(p, a.a2, ByteSpan(it->second.data(), n)).ok()) {
        return kNtError;
      }
      osi::GuestXfer xfer{p.info(), &p.as, a.a2, n};
      k.monitors_.on_atom_read(xfer, a.a1);
    }
    return n;
  }
};

namespace {

using H = SyscallHandlers;

constexpr SyscallRow kSyscalls[] = {
    {Sys::kNtCreateFile, "NtCreateFile", &H::create_file},
    {Sys::kNtOpenFile, "NtOpenFile", &H::open_file},
    {Sys::kNtReadFile, "NtReadFile", &H::read_file},
    {Sys::kNtWriteFile, "NtWriteFile", &H::write_file},
    {Sys::kNtCloseHandle, "NtCloseHandle", &H::close_handle},
    {Sys::kNtDeleteFile, "NtDeleteFile", &H::delete_file},
    {Sys::kNtSeekFile, "NtSeekFile", &H::seek_file},
    {Sys::kNtQueryFileSize, "NtQueryFileSize", &H::query_file_size},
    {Sys::kNtRenameFile, "NtRenameFile", &H::rename_file},
    {Sys::kNtTruncateFile, "NtTruncateFile", &H::truncate_file},
    {Sys::kNtFlushFile, "NtFlushFile", &H::flush_file},
    {Sys::kNtQueryFileVersion, "NtQueryFileVersion", &H::query_file_version},
    {Sys::kNtReadFileAt, "NtReadFileAt", &H::read_file_at},
    {Sys::kNtWriteFileAt, "NtWriteFileAt", &H::write_file_at},
    {Sys::kNtQueryFileExists, "NtQueryFileExists", &H::query_file_exists},

    {Sys::kNtAllocateVirtualMemory, "NtAllocateVirtualMemory",
     &H::allocate_vm},
    {Sys::kNtProtectVirtualMemory, "NtProtectVirtualMemory", &H::protect_vm},
    {Sys::kNtFreeVirtualMemory, "NtFreeVirtualMemory", &H::free_vm},
    {Sys::kNtReadVirtualMemory, "NtReadVirtualMemory", &H::read_vm},
    {Sys::kNtWriteVirtualMemory, "NtWriteVirtualMemory", &H::write_vm},
    {Sys::kNtUnmapViewOfSection, "NtUnmapViewOfSection", &H::unmap_view},

    {Sys::kNtCreateProcess, "NtCreateProcess", &H::create_process},
    {Sys::kNtSuspendProcess, "NtSuspendProcess", &H::suspend_process},
    {Sys::kNtResumeProcess, "NtResumeProcess", &H::resume_process},
    {Sys::kNtTerminateProcess, "NtTerminateProcess", &H::terminate_process},
    {Sys::kNtSetEntryPoint, "NtSetEntryPoint", &H::set_entry_point},
    {Sys::kNtGetCurrentPid, "NtGetCurrentPid", &H::get_current_pid},
    {Sys::kNtWaitProcess, "NtWaitProcess", &H::wait_process},
    {Sys::kNtOpenProcessByName, "NtOpenProcessByName",
     &H::open_process_by_name},
    {Sys::kNtQueryProcessList, "NtQueryProcessList", &H::query_process_list},

    {Sys::kNtSocket, "NtSocket", &H::socket},
    {Sys::kNtConnect, "NtConnect", &H::connect},
    {Sys::kNtBind, "NtBind", &H::bind},
    {Sys::kNtSend, "NtSend", &H::send},
    {Sys::kNtRecv, "NtRecv", &H::recv},
    {Sys::kNtPollRecv, "NtPollRecv", &H::poll_recv},
    {Sys::kNtResolveHost, "NtResolveHost", &H::resolve_host},

    {Sys::kNtReadDevice, "NtReadDevice", &H::read_device},
    {Sys::kNtDebugPrint, "NtDebugPrint", &H::debug_print},
    {Sys::kNtGetTick, "NtGetTick", &H::get_tick},
    {Sys::kNtYield, "NtYield", &H::yield},
    {Sys::kNtGetRandom, "NtGetRandom", &H::get_random},
    {Sys::kNtExit, "NtExit", &H::exit},
    {Sys::kNtGetModuleDirectory, "NtGetModuleDirectory",
     &H::get_module_directory},
    {Sys::kNtLoadLibrary, "NtLoadLibrary", &H::load_library},
    {Sys::kNtAddAtom, "NtAddAtom", &H::add_atom},
    {Sys::kNtGetAtom, "NtGetAtom", &H::get_atom},
};

/// Row by number: the dispatch lookup is one load.
constexpr auto kByNumber = [] {
  std::array<const SyscallRow*,
             static_cast<u32>(std::end(kSyscalls)[-1].number) + 1>
      index{};
  for (const SyscallRow& row : kSyscalls) {
    index[static_cast<u32>(row.number)] = &row;
  }
  return index;
}();

}  // namespace

std::span<const SyscallRow> syscall_table() { return kSyscalls; }

const SyscallRow* find_syscall(u32 number) {
  return number < kByNumber.size() ? kByNumber[number] : nullptr;
}

const char* syscall_name(u32 number) {
  const SyscallRow* row = find_syscall(number);
  return row ? row->name : "NtUnknown";
}

}  // namespace faros::os
