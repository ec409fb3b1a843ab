#include "os/snapshot.h"

#include "os/kernel.h"

namespace faros::os {

Result<SnapshotPtr> capture_snapshot(const KernelConfig& cfg) {
  KernelConfig base = cfg;
  base.snapshot = nullptr;
  Kernel k(base);
  if (auto b = k.boot(); !b.ok()) {
    return Err<SnapshotPtr>("snapshot boot: " + b.error().message);
  }
  auto s = std::make_shared<Snapshot>();
  s->ram = k.phys_mem().freeze();
  s->frames = k.frame_alloc().state();
  s->kernel_cr3 = k.kernel_as().cr3();
  s->modules = k.modules();
  return SnapshotPtr(std::move(s));
}

}  // namespace faros::os
