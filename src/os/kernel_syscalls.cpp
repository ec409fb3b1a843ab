// Syscall family handlers. ABI: number in r0, args in r1..r4, result in r0
// (kNtError on failure). Every byte moved between kernel objects and guest
// memory is published on the MonitorBus so the taint engine stays sound
// across the (native) kernel.
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

}  // namespace

void Kernel::sys_file(Process& p, Sys num) {
  auto& r = p.cpu.regs;
  u32& r0 = r[vm::R0];
  const u32 a1 = r[vm::R1], a2 = r[vm::R2], a3 = r[vm::R3], a4 = r[vm::R4];
  r0 = kNtError;

  auto do_read = [&](Handle* h, u32 offset, VAddr buf, u32 len,
                     bool advance) {
    if (!h || len > kMaxIoLen) return;
    auto st = vfs_.stat(h->path);
    if (!st.ok()) return;
    Bytes tmp(len);
    auto n = vfs_.read_at(h->path, offset, tmp);
    if (!n.ok()) return;
    u32 got = n.value();
    if (got > 0) {
      auto c = copy_to_guest(p, buf, ByteSpan(tmp.data(), got));
      if (!c.ok()) return;
      osi::GuestXfer xfer{p.info(), &p.as, buf, got};
      monitors_.on_file_read(xfer, st.value().file_id, h->path,
                             st.value().version, offset);
    }
    if (advance) h->pos = offset + got;
    r0 = got;
  };

  auto do_write = [&](Handle* h, u32 offset, VAddr buf, u32 len,
                      bool advance) {
    if (!h || len > kMaxIoLen) return;
    auto data = copy_from_guest(p, buf, len);
    if (!data.ok()) return;
    auto w = vfs_.write_at(h->path, offset, data.value());
    if (!w.ok()) return;
    auto st = vfs_.stat(h->path);
    if (st.ok()) {
      osi::GuestXfer xfer{p.info(), &p.as, buf, len};
      monitors_.on_file_write(xfer, st.value().file_id, h->path,
                              st.value().version, offset);
    }
    if (advance) h->pos = offset + len;
    r0 = len;
  };

  switch (num) {
    case Sys::kNtCreateFile:
    case Sys::kNtOpenFile: {
      auto path = read_path_arg(p, a1);
      if (!path.ok()) return;
      if (!vfs_.exists(path.value())) {
        if (num == Sys::kNtOpenFile) return;
        vfs_.create(path.value());
      }
      (void)vfs_.touch(path.value());
      r0 = alloc_handle(p, Handle{Handle::Kind::kFile, path.value(), 0, 0});
      return;
    }
    case Sys::kNtReadFile: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      do_read(h, h ? h->pos : 0, a2, a3, /*advance=*/true);
      return;
    }
    case Sys::kNtWriteFile: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      do_write(h, h ? h->pos : 0, a2, a3, /*advance=*/true);
      return;
    }
    case Sys::kNtReadFileAt: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      do_read(h, a2, a3, a4, /*advance=*/false);
      return;
    }
    case Sys::kNtWriteFileAt: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      do_write(h, a2, a3, a4, /*advance=*/false);
      return;
    }
    case Sys::kNtCloseHandle: {
      auto it = p.handles.find(a1);
      if (it == p.handles.end()) return;
      if (it->second.kind == Handle::Kind::kSocket) {
        (void)net_.close(it->second.sock_id);
      }
      p.handles.erase(it);
      r0 = 0;
      return;
    }
    case Sys::kNtDeleteFile: {
      auto path = read_path_arg(p, a1);
      if (!path.ok()) return;
      if (vfs_.remove(path.value()).ok()) r0 = 0;
      return;
    }
    case Sys::kNtSeekFile: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      if (!h) return;
      h->pos = a2;
      r0 = a2;
      return;
    }
    case Sys::kNtQueryFileSize: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      if (!h) return;
      auto st = vfs_.stat(h->path);
      if (st.ok()) r0 = st.value().size;
      return;
    }
    case Sys::kNtRenameFile: {
      auto from = read_path_arg(p, a1);
      auto to = read_path_arg(p, a2);
      if (!from.ok() || !to.ok()) return;
      if (vfs_.rename(from.value(), to.value()).ok()) r0 = 0;
      return;
    }
    case Sys::kNtTruncateFile: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      if (!h) return;
      if (vfs_.truncate(h->path, a2).ok()) r0 = 0;
      return;
    }
    case Sys::kNtFlushFile: {
      if (get_handle(p, a1, Handle::Kind::kFile)) r0 = 0;
      return;
    }
    case Sys::kNtQueryFileVersion: {
      Handle* h = get_handle(p, a1, Handle::Kind::kFile);
      if (!h) return;
      auto st = vfs_.stat(h->path);
      if (st.ok()) r0 = st.value().version;
      return;
    }
    case Sys::kNtQueryFileExists: {
      auto path = read_path_arg(p, a1);
      if (path.ok()) r0 = vfs_.exists(path.value()) ? 1 : 0;
      return;
    }
    default: return;
  }
}

void Kernel::sys_memory(Process& p, Sys num) {
  auto& r = p.cpu.regs;
  u32& r0 = r[vm::R0];
  const u32 a1 = r[vm::R1], a2 = r[vm::R2], a3 = r[vm::R3], a4 = r[vm::R4];
  r0 = kNtError;

  auto target = [&](u32 pid) -> Process* {
    if (pid == 0 || pid == p.pid) return &p;
    Process* t = find(pid);
    return (t && t->alive()) ? t : nullptr;
  };

  switch (num) {
    case Sys::kNtAllocateVirtualMemory: {
      Process* t = target(a1);
      const u32 len = a2, prot = a3;
      if (!t || len == 0 || len > kMaxAllocLen) return;
      VAddr va = t->alloc_cursor;
      if (!t->as.map_alloc(va, len, prot_to_pte(prot)).ok()) return;
      u32 span = vm::page_ceil(len);
      t->alloc_cursor = va + span + vm::kPageSize;  // guard gap
      t->regions.push_back(Region{Region::Kind::kAlloc, va, span, prot, ""});
      r0 = va;
      return;
    }
    case Sys::kNtProtectVirtualMemory: {
      Process* t = target(a1);
      if (!t) return;
      if (!t->as.protect_range(a2, a3, prot_to_pte(a4)).ok()) return;
      if (Region* reg = t->region_containing(a2)) reg->prot = a4;
      r0 = 0;
      return;
    }
    case Sys::kNtFreeVirtualMemory: {
      Process* t = target(a1);
      if (!t) return;
      if (!t->as.unmap_range(a2, a3, /*free_frames=*/true).ok()) return;
      auto& regs_list = t->regions;
      regs_list.erase(std::remove_if(regs_list.begin(), regs_list.end(),
                                     [&](const Region& reg) {
                                       return reg.base == a2;
                                     }),
                      regs_list.end());
      r0 = 0;
      return;
    }
    case Sys::kNtReadVirtualMemory: {
      Process* t = target(a1);
      if (!t || t == &p || a4 > kMaxIoLen) return;
      auto data = copy_from_guest(*t, a2, a4);
      if (!data.ok()) return;
      if (!copy_to_guest(p, a3, data.value()).ok()) return;
      osi::GuestXfer src{t->info(), &t->as, a2, a4};
      osi::GuestXfer dst{p.info(), &p.as, a3, a4};
      monitors_.on_cross_process_write(src, dst);
      r0 = a4;
      return;
    }
    case Sys::kNtWriteVirtualMemory: {
      Process* t = target(a1);
      if (!t || t == &p || a4 > kMaxIoLen) return;
      auto data = copy_from_guest(p, a3, a4);
      if (!data.ok()) return;
      if (!copy_to_guest(*t, a2, data.value()).ok()) return;
      osi::GuestXfer src{p.info(), &p.as, a3, a4};
      osi::GuestXfer dst{t->info(), &t->as, a2, a4};
      monitors_.on_cross_process_write(src, dst);
      r0 = a4;
      return;
    }
    case Sys::kNtUnmapViewOfSection: {
      Process* t = target(a1);
      if (!t) return;
      Region* reg = t->region_containing(a2);
      if (!reg || reg->kind != Region::Kind::kImage) return;
      if (!t->as.unmap_range(reg->base, reg->len, /*free_frames=*/true)
               .ok()) {
        return;
      }
      VAddr base = reg->base;
      auto& regs_list = t->regions;
      regs_list.erase(std::remove_if(regs_list.begin(), regs_list.end(),
                                     [&](const Region& rr) {
                                       return rr.base == base;
                                     }),
                      regs_list.end());
      r0 = 0;
      return;
    }
    default: return;
  }
}

void Kernel::sys_process(Process& p, Sys num) {
  auto& r = p.cpu.regs;
  u32& r0 = r[vm::R0];
  const u32 a1 = r[vm::R1], a2 = r[vm::R2];
  r0 = kNtError;

  switch (num) {
    case Sys::kNtCreateProcess: {
      auto path = read_path_arg(p, a1);
      if (!path.ok()) return;
      auto pid = spawn(path.value(), (a2 & 1) != 0, p.pid);
      if (pid.ok()) r0 = pid.value();
      return;
    }
    case Sys::kNtSuspendProcess: {
      Process* t = find(a1);
      if (!t || !t->alive()) return;
      t->state = ProcState::kSuspended;
      r0 = 0;
      return;
    }
    case Sys::kNtResumeProcess: {
      Process* t = find(a1);
      if (!t || t->state != ProcState::kSuspended) return;
      t->state = t->wait.kind != PendingWait::Kind::kNone
                     ? ProcState::kBlocked
                     : ProcState::kReady;
      r0 = 0;
      return;
    }
    case Sys::kNtTerminateProcess: {
      Process* t = find(a1);
      if (!t || !t->alive()) return;
      terminate(*t, a2);
      r0 = 0;
      return;
    }
    case Sys::kNtSetEntryPoint: {
      Process* t = find(a1);
      if (!t || !t->alive()) return;
      t->cpu.set_pc(a2);
      r0 = 0;
      return;
    }
    case Sys::kNtGetCurrentPid: r0 = p.pid; return;
    case Sys::kNtWaitProcess: {
      Process* t = find(a1);
      if (!t) return;
      if (t->state == ProcState::kTerminated) {
        r0 = t->exit_code;
        return;
      }
      p.state = ProcState::kBlocked;
      p.wait = PendingWait{PendingWait::Kind::kProcExit, a1, 0, 0};
      return;
    }
    case Sys::kNtOpenProcessByName: {
      auto name = read_path_arg(p, a1);
      if (!name.ok()) return;
      Process* t = find_by_name(name.value());
      if (t) r0 = t->pid;
      return;
    }
    case Sys::kNtQueryProcessList: {
      // r1 = u32 array, r2 = capacity in entries -> count written.
      u32 cap = std::min<u32>(r[vm::R2], 256);
      ByteWriter w;
      u32 count = 0;
      for (const auto& info : process_list()) {
        const Process* t = find(info.pid);
        if (!t || !t->alive() || count >= cap) continue;
        w.put_u32(info.pid);
        ++count;
      }
      if (!copy_to_guest(p, a1, w.bytes()).ok()) return;
      r0 = count;
      return;
    }
    default: return;
  }
}

void Kernel::sys_net(Process& p, Sys num) {
  auto& r = p.cpu.regs;
  u32& r0 = r[vm::R0];
  const u32 a1 = r[vm::R1], a2 = r[vm::R2], a3 = r[vm::R3];
  r0 = kNtError;

  switch (num) {
    case Sys::kNtSocket: {
      SocketId sid = net_.create(p.pid);
      r0 = alloc_handle(p, Handle{Handle::Kind::kSocket, "", sid, 0});
      return;
    }
    case Sys::kNtConnect: {
      Handle* h = get_handle(p, a1, Handle::Kind::kSocket);
      if (!h) return;
      if (net_.connect(h->sock_id, a2, static_cast<u16>(a3)).ok()) r0 = 0;
      return;
    }
    case Sys::kNtBind: {
      Handle* h = get_handle(p, a1, Handle::Kind::kSocket);
      if (!h) return;
      if (net_.bind(h->sock_id, static_cast<u16>(a2)).ok()) r0 = 0;
      return;
    }
    case Sys::kNtSend: {
      Handle* h = get_handle(p, a1, Handle::Kind::kSocket);
      if (!h || a3 > kMaxIoLen) return;
      auto data = copy_from_guest(p, a2, a3);
      if (!data.ok()) return;
      auto pkt = net_.send(h->sock_id, data.value(), interp_.instr_count());
      if (!pkt.ok()) return;
      osi::GuestXfer xfer{p.info(), &p.as, a2, a3};
      osi::PacketMeta meta{pkt.value().segment_id, 0, pkt.value().loopback};
      monitors_.on_guest_send(xfer, pkt.value().flow, meta);
      r0 = a3;
      return;
    }
    case Sys::kNtRecv: {
      Handle* h = get_handle(p, a1, Handle::Kind::kSocket);
      if (!h || a3 > kMaxIoLen) return;
      auto avail = net_.rx_available(h->sock_id);
      if (!avail.ok()) return;
      if (avail.value() == 0) {
        p.state = ProcState::kBlocked;
        p.wait = PendingWait{PendingWait::Kind::kRecv, a1, a2, a3};
        return;
      }
      Bytes tmp(a3);
      FlowTuple flow;
      u64 seg_id = 0;
      u32 seg_off = 0;
      auto n = net_.read_rx(h->sock_id, tmp, &flow, &seg_id, &seg_off);
      if (!n.ok()) return;
      u32 got = n.value();
      if (got > 0) {
        if (!copy_to_guest(p, a2, ByteSpan(tmp.data(), got)).ok()) return;
        osi::GuestXfer xfer{p.info(), &p.as, a2, got};
        osi::PacketMeta meta{seg_id, seg_off,
                             flow.src_ip == net_.guest_ip()};
        monitors_.on_packet_to_guest(xfer, flow, meta);
      }
      r0 = got;
      return;
    }
    case Sys::kNtPollRecv: {
      Handle* h = get_handle(p, a1, Handle::Kind::kSocket);
      if (!h) return;
      auto avail = net_.rx_available(h->sock_id);
      if (avail.ok()) r0 = avail.value();
      return;
    }
    case Sys::kNtResolveHost: {
      auto host = read_path_arg(p, a1);
      if (!host.ok()) return;
      r0 = resolve_host(host.value());
      return;
    }
    default: return;
  }
}

void Kernel::sys_misc(Process& p, Sys num) {
  auto& r = p.cpu.regs;
  u32& r0 = r[vm::R0];
  const u32 a1 = r[vm::R1], a2 = r[vm::R2], a3 = r[vm::R3];
  r0 = kNtError;

  switch (num) {
    case Sys::kNtReadDevice: {
      if (a3 > kMaxIoLen) return;
      auto& q = device_queues_[a1];
      if (q.empty()) {
        p.state = ProcState::kBlocked;
        p.wait = PendingWait{PendingWait::Kind::kDevice, a1, a2, a3};
        return;
      }
      Bytes& front = q.front();
      u32 n = std::min<u32>(a3, static_cast<u32>(front.size()));
      if (n > 0) {
        if (!copy_to_guest(p, a2, ByteSpan(front.data(), n)).ok()) return;
        osi::GuestXfer xfer{p.info(), &p.as, a2, n};
        monitors_.on_device_read(xfer, a1);
      }
      if (n == front.size()) {
        q.pop_front();
      } else {
        front.erase(front.begin(), front.begin() + n);
      }
      r0 = n;
      return;
    }
    case Sys::kNtDebugPrint: {
      u32 len = std::min<u32>(a2, 1024);
      auto data = copy_from_guest(p, a1, len);
      if (!data.ok()) return;
      std::string text(data.value().begin(), data.value().end());
      p.debug_output.push_back(text);
      if (console_.size() < kMaxConsoleLines) {
        console_.push_back(p.name + ": " + text);
      }
      monitors_.on_debug_print(p.info(), text);
      r0 = 0;
      return;
    }
    case Sys::kNtGetTick:
      r0 = static_cast<u32>(interp_.instr_count() & 0xffffffffu);
      return;
    case Sys::kNtYield: r0 = 0; return;
    case Sys::kNtGetRandom: {
      u32 len = std::min<u32>(a2, 4096);
      Bytes data = rng_.bytes(len);
      if (!copy_to_guest(p, a1, data).ok()) return;
      r0 = len;
      return;
    }
    case Sys::kNtExit: terminate(p, a1); return;
    case Sys::kNtGetModuleDirectory: r0 = KernelLayout::kModuleDir; return;
    case Sys::kNtLoadLibrary: {
      auto name = read_path_arg(p, a1);
      if (!name.ok()) return;
      u32 hash = fnv1a32(name.value());
      for (const auto& m : modules_) {
        if (m.name_hash == hash) {
          r0 = m.base;
          return;
        }
      }
      return;
    }
    case Sys::kNtAddAtom: {
      if (a2 == 0 || a2 > 4096) return;
      auto data = copy_from_guest(p, a1, a2);
      if (!data.ok()) return;
      u32 atom = next_atom_++;
      atoms_[atom] = std::move(data).take();
      osi::GuestXfer xfer{p.info(), &p.as, a1, a2};
      monitors_.on_atom_write(xfer, atom);
      r0 = atom;
      return;
    }
    case Sys::kNtGetAtom: {
      auto it = atoms_.find(a1);
      if (it == atoms_.end() || a3 > kMaxIoLen) return;
      u32 n = std::min<u32>(a3, static_cast<u32>(it->second.size()));
      if (n > 0) {
        if (!copy_to_guest(p, a2, ByteSpan(it->second.data(), n)).ok()) {
          return;
        }
        osi::GuestXfer xfer{p.info(), &p.as, a2, n};
        monitors_.on_atom_read(xfer, a1);
      }
      r0 = n;
      return;
    }
    default: return;
  }
}

bool Kernel::try_complete_wait(Process& p) {
  switch (p.wait.kind) {
    case PendingWait::Kind::kNone: return false;
    case PendingWait::Kind::kRecv: {
      Handle* h = get_handle(p, p.wait.id, Handle::Kind::kSocket);
      if (!h) {
        p.cpu.regs[vm::R0] = kNtError;
        break;
      }
      auto avail = net_.rx_available(h->sock_id);
      if (!avail.ok()) {
        p.cpu.regs[vm::R0] = kNtError;
        break;
      }
      if (avail.value() == 0) return false;
      Bytes tmp(p.wait.len);
      FlowTuple flow;
      u64 seg_id = 0;
      u32 seg_off = 0;
      auto n = net_.read_rx(h->sock_id, tmp, &flow, &seg_id, &seg_off);
      u32 got = n.ok() ? n.value() : 0;
      if (got > 0) {
        if (!copy_to_guest(p, p.wait.buf, ByteSpan(tmp.data(), got)).ok()) {
          p.cpu.regs[vm::R0] = kNtError;
          break;
        }
        osi::GuestXfer xfer{p.info(), &p.as, p.wait.buf, got};
        osi::PacketMeta meta{seg_id, seg_off,
                             flow.src_ip == net_.guest_ip()};
        monitors_.on_packet_to_guest(xfer, flow, meta);
      }
      p.cpu.regs[vm::R0] = got;
      break;
    }
    case PendingWait::Kind::kDevice: {
      auto it = device_queues_.find(p.wait.id);
      if (it == device_queues_.end() || it->second.empty()) return false;
      Bytes& front = it->second.front();
      u32 n = std::min<u32>(p.wait.len, static_cast<u32>(front.size()));
      if (n > 0) {
        if (!copy_to_guest(p, p.wait.buf, ByteSpan(front.data(), n)).ok()) {
          p.cpu.regs[vm::R0] = kNtError;
          break;
        }
        osi::GuestXfer xfer{p.info(), &p.as, p.wait.buf, n};
        monitors_.on_device_read(xfer, p.wait.id);
      }
      if (n == front.size()) {
        it->second.pop_front();
      } else {
        front.erase(front.begin(), front.begin() + n);
      }
      p.cpu.regs[vm::R0] = n;
      break;
    }
    case PendingWait::Kind::kProcExit: {
      Process* t = find(p.wait.id);
      if (!t) {
        p.cpu.regs[vm::R0] = kNtError;
        break;
      }
      if (t->state != ProcState::kTerminated) return false;
      p.cpu.regs[vm::R0] = t->exit_code;
      break;
    }
  }
  p.wait = PendingWait{};
  p.state = ProcState::kReady;
  return true;
}

}  // namespace faros::os
