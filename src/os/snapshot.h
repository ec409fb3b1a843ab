// Booted-guest snapshots: freeze a freshly booted WinSim image once and
// clone it per farm job instead of re-running boot.
//
// Boot is the job-invariant prefix of every run: pre-creating the kernel
// page tables and assembling + loading the runtime modules
// (ntdll/user32/kernel32). A Snapshot captures everything that prefix
// produced: the physical-memory image (frozen as an immutable, sparse
// vm::MemImage), the frame-allocator state, the kernel address-space root
// (CR3 — the tables themselves live inside the RAM image), and the module
// registry. Kernel::boot() with KernelConfig::snapshot set restores that
// state instead of rebuilding it; the clone's PhysMem runs copy-on-write
// over the shared image.
//
// Cost: guest RAM is copy-on-write in every machine (a cold kernel clones
// the all-zero image), so neither a cold boot nor a capture touches the
// 64 MiB guest beyond the frames boot writes. Capture is one cold boot
// plus a freeze that copies only the handful of frames holding a non-zero
// byte, well under a millisecond; a clone costs a copy of the per-frame
// pointer table.
//
// Determinism contract: boot executes no guest instructions and the only
// monitor events it publishes are one on_module_loaded per runtime module,
// in load order. boot-from-snapshot re-publishes exactly that sequence, so
// an engine attached before boot() (how the farm sets up its analyzed live
// run and every extra-policy replay) reconstructs the identical
// shadow/provenance base state — export-table tags and all — and every
// downstream verdict is byte-identical to a cold boot. The CI
// snapshot-equivalence gate pins this over the full corpus.
#pragma once

#include <memory>
#include <vector>

#include "common/result.h"
#include "introspection/monitor.h"
#include "vm/phys_mem.h"

namespace faros::os {

struct KernelConfig;

/// Immutable image of a booted kernel. Held by shared_ptr: the farm
/// captures one per run and every clone keeps it alive for as long as its
/// COW PhysMem references shared frames.
struct Snapshot {
  std::shared_ptr<const vm::MemImage> ram;
  vm::FrameAllocator::State frames;
  PAddr kernel_cr3 = 0;
  std::vector<osi::ModuleInfo> modules;
  // Config the image was built from; boot-from-snapshot refuses a clone
  // whose config diverges (the image would silently not match).
  u32 ram_bytes = 0;
  u32 guest_ip = 0;
  u64 rng_seed = 0;
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Boots a fresh kernel from `cfg` (any cfg.snapshot is ignored) and
/// freezes its post-boot state. The booted kernel is discarded; only the
/// frozen image survives.
Result<SnapshotPtr> capture_snapshot(const KernelConfig& cfg);

}  // namespace faros::os
