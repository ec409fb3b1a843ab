#include "introspection/monitor.h"

#include <algorithm>

namespace faros::osi {

void MonitorBus::attach(GuestMonitor* m) {
  monitors_.push_back(m);
  if (auto* o = dynamic_cast<SyscallObserver*>(m)) observers_.push_back(o);
}

void MonitorBus::detach(GuestMonitor* m) {
  monitors_.erase(std::remove(monitors_.begin(), monitors_.end(), m),
                  monitors_.end());
  if (auto* o = dynamic_cast<SyscallObserver*>(m)) {
    observers_.erase(std::remove(observers_.begin(), observers_.end(), o),
                     observers_.end());
  }
}

void MonitorBus::on_process_start(const ProcessInfo& p) {
  for (auto* m : monitors_) m->on_process_start(p);
}
void MonitorBus::on_process_exit(const ProcessInfo& p, u32 code) {
  for (auto* m : monitors_) m->on_process_exit(p, code);
}
void MonitorBus::on_module_loaded(const ModuleInfo& mod,
                                  const vm::AddressSpace& as) {
  for (auto* m : monitors_) m->on_module_loaded(mod, as);
}
void MonitorBus::on_syscall(const SyscallEvent& ev) {
  for (auto* o : observers_) o->on_syscall(ev);
}
void MonitorBus::on_packet_to_guest(const GuestXfer& x, const FlowTuple& f,
                                    const PacketMeta& meta) {
  for (auto* m : monitors_) m->on_packet_to_guest(x, f, meta);
}
void MonitorBus::on_guest_send(const GuestXfer& x, const FlowTuple& f,
                               const PacketMeta& meta) {
  for (auto* m : monitors_) m->on_guest_send(x, f, meta);
}
void MonitorBus::on_file_read(const GuestXfer& x, u32 id,
                              const std::string& path, u32 ver, u32 off) {
  for (auto* m : monitors_) m->on_file_read(x, id, path, ver, off);
}
void MonitorBus::on_file_write(const GuestXfer& x, u32 id,
                               const std::string& path, u32 ver, u32 off) {
  for (auto* m : monitors_) m->on_file_write(x, id, path, ver, off);
}
void MonitorBus::on_image_mapped(const ProcessInfo& p,
                                 const vm::AddressSpace& as, VAddr base,
                                 u32 len, u32 id, const std::string& path,
                                 u32 ver) {
  for (auto* m : monitors_) {
    m->on_image_mapped(p, as, base, len, id, path, ver);
  }
}
void MonitorBus::on_iat_resolved(const ProcessInfo& p,
                                 const vm::AddressSpace& as, VAddr slot_va) {
  for (auto* m : monitors_) m->on_iat_resolved(p, as, slot_va);
}
void MonitorBus::on_cross_process_write(const GuestXfer& s,
                                        const GuestXfer& d) {
  for (auto* m : monitors_) m->on_cross_process_write(s, d);
}
void MonitorBus::on_atom_write(const GuestXfer& x, u32 atom_id) {
  for (auto* m : monitors_) m->on_atom_write(x, atom_id);
}
void MonitorBus::on_atom_read(const GuestXfer& x, u32 atom_id) {
  for (auto* m : monitors_) m->on_atom_read(x, atom_id);
}
void MonitorBus::on_device_read(const GuestXfer& x, u32 dev) {
  for (auto* m : monitors_) m->on_device_read(x, dev);
}
void MonitorBus::on_frame_recycled(PAddr frame) {
  for (auto* m : monitors_) m->on_frame_recycled(frame);
}
void MonitorBus::on_kernel_write(const GuestXfer& x) {
  for (auto* m : monitors_) m->on_kernel_write(x);
}
void MonitorBus::on_debug_print(const ProcessInfo& p,
                                const std::string& text) {
  for (auto* m : monitors_) m->on_debug_print(p, text);
}

}  // namespace faros::osi
