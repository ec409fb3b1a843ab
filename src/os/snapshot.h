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
// plus a freeze that walks only the frame-table leaves boot wrote and
// copies only the handful of frames holding a non-zero byte, well under a
// millisecond. A clone costs a copy of the image's 64 leaf pointers; its
// first write or watch in a 1 MiB leaf copies that leaf's read pointers
// (see vm/phys_mem.h).
//
// Determinism contract: boot executes no guest instructions and the only
// monitor events it publishes are one on_module_loaded per runtime module,
// in load order. boot-from-snapshot re-publishes exactly that sequence, so
// an engine attached before boot() (how the farm sets up its analyzed live
// run and every extra-policy replay) reconstructs the identical
// shadow/provenance base state — export-table tags and all — and every
// downstream verdict is byte-identical to a cold boot. Two checks pin
// this: SnapshotFarm.ClonedJobsMatchColdBootAnalysis (tests/
// test_snapshot.cpp) on the injection corpus, and bench_farm_throughput's
// verdict check, which fails unless every job of the Table IV corpus gets
// the same verdict fields at every farm sweep point as on a cold boot.
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
  // No config to check at clone time: RAM size, guest IP and RNG seed are
  // constants (os::kRamBytes, os::kGuestIp, os::kRngSeed).
};

using SnapshotPtr = std::shared_ptr<const Snapshot>;

/// Boots a fresh kernel from `cfg` (any cfg.snapshot is ignored) and
/// freezes its post-boot state. The booted kernel is discarded; only the
/// frozen image survives.
Result<SnapshotPtr> capture_snapshot(const KernelConfig& cfg);

}  // namespace faros::os
