#include "os/kernel.h"

#include <algorithm>

#include "common/strings.h"
#include "os/runtime.h"
#include "os/snapshot.h"

namespace faros::os {

using vm::AccessType;
using vm::AddressSpace;
using vm::kPageSize;
using vm::kPteExec;
using vm::kPteUser;
using vm::kPteWrite;

namespace {
/// Guest RAM is always copy-on-write: a snapshot clone runs over the
/// frozen post-boot image, a cold kernel over the all-zero image, so fresh
/// RAM is 64 leaf pointers rather than 64 MiB of zeroing (guaranteed copy
/// elision constructs mem_ in place either way).
vm::PhysMem make_phys(const KernelConfig& cfg) {
  if (cfg.snapshot) return vm::PhysMem(cfg.snapshot->ram);
  return vm::PhysMem(kRamBytes);
}
}  // namespace

Kernel::Kernel(const KernelConfig& cfg)
    : cfg_(cfg),
      mem_(make_phys(cfg)),
      frames_(mem_.num_frames()),
      interp_(mem_),
      net_(kGuestIp),
      rng_(kRngSeed) {
  // Frame 0 stays reserved so a zero CR3/frame is never valid.
  frames_.reserve(0);
  frames_.set_free_observer([this](PAddr frame) {
    // Translated blocks must never outlive the frame holding their bytes:
    // the next owner of this frame gets fresh translations.
    interp_.invalidate_code_frame(frame);
    monitors_.on_frame_recycled(frame);
  });
}

Kernel::~Kernel() = default;

Result<void> Kernel::boot() {
  if (cfg_.snapshot) return boot_from_snapshot(*cfg_.snapshot);

  auto as = AddressSpace::create(mem_, frames_);
  if (!as.ok()) return Err<void>(as.error().message);
  kernel_as_ = as.value();

  // Pre-create every kernel-half page table so the directory entries are
  // stable before any process shares them.
  for (VAddr va = vm::kKernelBase; va < KernelLayout::kKernelTablesEnd;
       va += (kPageSize * vm::kEntriesPerTable)) {
    auto r = kernel_as_.ensure_table(va);
    if (!r.ok()) return r;
  }

  // Module directory page: user-readable, kernel-writable.
  auto r = kernel_as_.map_alloc(KernelLayout::kModuleDir, kPageSize, kPteUser);
  if (!r.ok()) return r;

  auto ntdll = build_ntdll();
  if (!ntdll.ok()) return Err<void>(ntdll.error().message);
  r = load_module(ntdll.value());
  if (!r.ok()) return r;

  auto user32 = build_user32();
  if (!user32.ok()) return Err<void>(user32.error().message);
  r = load_module(user32.value());
  if (!r.ok()) return r;

  auto kernel32 = build_kernel32();
  if (!kernel32.ok()) return Err<void>(kernel32.error().message);
  r = load_module(kernel32.value());
  if (!r.ok()) return r;

  booted_ = true;
  return Ok();
}

Result<void> Kernel::boot_from_snapshot(const Snapshot& snap) {
  frames_.restore(snap.frames);
  kernel_as_ = AddressSpace::adopt(mem_, frames_, snap.kernel_cr3);
  modules_ = snap.modules;
  booted_ = true;
  // Re-publish the boot-time module events in load order: monitors attach
  // before boot() (the farm's analyzed live run), and a cold boot is exactly
  // "no guest instructions + one on_module_loaded per runtime module", so
  // replaying that sequence reconstructs identical monitor state (export-
  // table tags included).
  for (const auto& m : modules_) monitors_.on_module_loaded(m, kernel_as_);
  return Ok();
}

Result<void> Kernel::map_and_copy(AddressSpace& as, VAddr base, ByteSpan blob,
                                  u32 final_flags) {
  auto r = as.map_alloc(base, static_cast<u32>(blob.size()), final_flags);
  if (!r.ok()) return r;
  return as.copy_in(base, blob, /*user=*/false);
}

Result<void> Kernel::load_module(const Image& img) {
  const u32 code_len = static_cast<u32>(img.blob.size());
  auto r = map_and_copy(kernel_as_, img.base_va, img.blob,
                        kPteUser | kPteExec);
  if (!r.ok()) return r;

  // Materialise the export table right after the code pages: the guest-
  // visible structure is [count][hash,addr]*count.
  VAddr exports_va = img.base_va + vm::page_ceil(code_len);
  u32 table_len = 4 + 8 * static_cast<u32>(img.exports.size());
  r = kernel_as_.map_alloc(exports_va, table_len, kPteUser);
  if (!r.ok()) return r;
  ByteWriter w;
  w.put_u32(static_cast<u32>(img.exports.size()));
  for (const auto& exp : img.exports) {
    w.put_u32(exp.symbol_hash);
    w.put_u32(img.base_va + exp.offset);
  }
  r = kernel_as_.copy_in(exports_va, w.bytes(), /*user=*/false);
  if (!r.ok()) return r;

  osi::ModuleInfo mod;
  mod.name = img.name;
  mod.name_hash = fnv1a32(img.name);
  mod.base = img.base_va;
  mod.size = vm::page_ceil(code_len) + vm::page_ceil(table_len);
  mod.exports_va = exports_va;
  mod.export_count = static_cast<u32>(img.exports.size());
  modules_.push_back(mod);

  // Refresh the guest module directory.
  ByteWriter dir;
  dir.put_u32(static_cast<u32>(modules_.size()));
  for (const auto& m : modules_) {
    dir.put_u32(m.name_hash);
    dir.put_u32(m.base);
    dir.put_u32(m.exports_va);
    dir.put_u32(m.export_count);
  }
  r = kernel_as_.copy_in(KernelLayout::kModuleDir, dir.bytes(),
                         /*user=*/false);
  if (!r.ok()) return r;

  monitors_.on_module_loaded(mod, kernel_as_);
  return Ok();
}

Result<Pid> Kernel::spawn(const std::string& path, bool suspended,
                          Pid parent) {
  auto raw = vfs_.read_all(path);
  if (!raw.ok()) return Err<Pid>("spawn: " + raw.error().message);
  auto img = Image::deserialize(raw.value());
  if (!img.ok()) return Err<Pid>("spawn: " + img.error().message);
  const Image& image = img.value();
  if (image.base_va >= vm::kKernelBase) {
    return Err<Pid>("spawn: user image with kernel base address");
  }

  auto as = AddressSpace::create(mem_, frames_);
  if (!as.ok()) return Err<Pid>("spawn: " + as.error().message);
  AddressSpace space = as.value();
  space.share_directory_range(kernel_as_, vm::kKernelBase, 0xffffffffu);

  // Image pages: RWX+user, single-blob mapping (see DESIGN.md). The malfind
  // baseline distinguishes injected memory by region kind, not page bits.
  auto r = map_and_copy(space, image.base_va, image.blob,
                        kPteUser | kPteWrite | kPteExec);
  if (!r.ok()) return Err<Pid>("spawn: " + r.error().message);

  // Resolve imports against loaded modules (native loader path; benign
  // loads never touch export tables with guest instructions).
  for (const ImportEntry& imp : image.imports) {
    const osi::ModuleInfo* mod = nullptr;
    for (const auto& m : modules_) {
      if (m.name_hash == imp.module_hash) {
        mod = &m;
        break;
      }
    }
    if (!mod) return Err<Pid>("spawn: unresolved import module");
    // Export tables are host-known too; read the guest structure.
    u32 addr = 0;
    for (u32 i = 0; i < mod->export_count; ++i) {
      VAddr entry = mod->exports_va + 4 + i * 8;
      if (kernel_as_.read32_or(entry, 0) == imp.symbol_hash) {
        addr = kernel_as_.read32_or(entry + 4, 0);
        break;
      }
    }
    if (addr == 0) return Err<Pid>("spawn: unresolved import symbol");
    ByteWriter w;
    w.put_u32(addr);
    auto wr = space.copy_in(image.base_va + imp.slot_offset, w.bytes(),
                            /*user=*/false);
    if (!wr.ok()) return Err<Pid>("spawn: " + wr.error().message);
  }

  // Stack.
  r = space.map_alloc(kUserStackTop - kUserStackSize, kUserStackSize,
                      kPteUser | kPteWrite);
  if (!r.ok()) return Err<Pid>("spawn: " + r.error().message);

  Pid pid = next_pid_++;
  Process proc;
  proc.pid = pid;
  proc.parent = parent;
  proc.name = image.name;
  proc.image_path = path;
  proc.as = space;
  proc.cpu.set_pc(image.entry_va());
  proc.cpu.regs[vm::SP] = kUserStackTop - 16;
  proc.state = suspended ? ProcState::kSuspended : ProcState::kReady;
  proc.alloc_cursor = kUserAllocBase;
  proc.regions.push_back(Region{Region::Kind::kImage, image.base_va,
                                vm::page_ceil(static_cast<u32>(
                                    image.blob.size())),
                                kProtRead | kProtWrite | kProtExec, path});
  proc.regions.push_back(Region{Region::Kind::kStack,
                                kUserStackTop - kUserStackSize,
                                kUserStackSize, kProtRead | kProtWrite, ""});

  auto [it, inserted] = procs_.emplace(pid, std::move(proc));
  Process& p = it->second;
  sched_order_.push_back(&p);
  ++live_count_;

  // The loader read the image file: bump its access version and publish
  // the mapping so FAROS can apply a file tag to the image bytes.
  auto ver = vfs_.touch(path);
  auto st = vfs_.stat(path);
  monitors_.on_process_start(p.info());
  if (st.ok()) {
    monitors_.on_image_mapped(p.info(), p.as, image.base_va,
                              static_cast<u32>(image.blob.size()),
                              st.value().file_id, path,
                              ver.ok() ? ver.value() : 0);
  }
  // IAT slots hold pointers the loader derived from export tables; publish
  // them after on_image_mapped so the export tag layers on the file tag.
  for (const ImportEntry& imp : image.imports) {
    monitors_.on_iat_resolved(p.info(), p.as,
                              image.base_va + imp.slot_offset);
  }
  return pid;
}

Process* Kernel::find(Pid pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

const Process* Kernel::find(Pid pid) const {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

Process* Kernel::find_by_name(const std::string& name) {
  for (auto& [pid, p] : procs_) {
    if (p.alive() && p.name == name) return &p;
  }
  return nullptr;
}

void Kernel::terminate(Process& p, u32 exit_code) {
  if (p.state == ProcState::kTerminated) return;
  p.state = ProcState::kTerminated;
  --live_count_;
  p.exit_code = exit_code;
  net_.close_all_for(p.pid);
  p.handles.clear();
  monitors_.on_process_exit(p.info(), exit_code);
  // Drop the dying space's translated blocks before its CR3 frame returns
  // to the allocator — a recycled CR3 must start with a cold cache.
  interp_.evict_cr3_blocks(p.as.cr3());
  p.as.destroy(/*free_user_frames=*/true);
}

Process* Kernel::pick_next() {
  const size_t n = sched_order_.size();
  size_t idx = sched_cursor_;  // <= n: one past the last pick
  for (size_t i = 0; i < n; ++i, ++idx) {
    if (idx == n) idx = 0;
    Process* p = sched_order_[idx];
    if (p->state == ProcState::kBlocked) {
      if (!run_syscall(*p)) continue;
      p->state = ProcState::kReady;
    }
    if (p->state == ProcState::kReady) {
      sched_cursor_ = idx + 1;
      return p;
    }
  }
  return nullptr;
}

u32 Kernel::resolve_host(const std::string& host) const {
  auto it = dns_.find(host);
  if (it != dns_.end()) return it->second;
  // Deterministic fake internet: hash the name into a public-ish /8.
  u32 h = fnv1a32(host);
  return 0x5d000000u | (h & 0x00ffffffu);  // 93.x.y.z
}

u64 Kernel::run_process(Process& p, u64 quantum) {
  auto info = interp_.run(p.cpu, p.as, quantum);
  p.instr_retired += info.executed;
  switch (info.result) {
    case vm::StepResult::kBudget: break;
    case vm::StepResult::kSyscall: dispatch_syscall(p); break;
    case vm::StepResult::kHalt: terminate(p, p.cpu.regs[vm::R1]); break;
    case vm::StepResult::kTrap: {
      std::string msg =
          strf("%s (pid %u) trapped: %s @%s", p.name.c_str(), p.pid,
               vm::trap_kind_name(info.trap), hex32(info.pc).c_str());
      if (info.trap == vm::TrapKind::kMemFault) {
        msg += strf(" (%s at %s)", vm::fault_kind_name(info.fault.kind),
                    hex32(info.fault.va).c_str());
      }
      trap_log_.push_back(msg);
      terminate(p, 0xdead);
      break;
    }
  }
  return info.executed;
}

bool Kernel::deliver_packet(const FlowTuple& flow, ByteSpan data) {
  return net_.deliver(flow, data);
}

void Kernel::deliver_device(u32 device_id, ByteSpan data) {
  device_queues_[device_id].push_back(Bytes(data.begin(), data.end()));
}

std::optional<osi::ProcessInfo> Kernel::process_by_cr3(PAddr cr3) const {
  for (const auto& [pid, p] : procs_) {
    if (p.as.cr3() == cr3 && p.alive()) return p.info();
  }
  return std::nullopt;
}

std::vector<osi::ProcessInfo> Kernel::process_list() const {
  std::vector<osi::ProcessInfo> out;
  out.reserve(procs_.size());
  for (const auto& [pid, p] : procs_) out.push_back(p.info());
  return out;
}

// ---------------------------------------------------------------------------
// Guest copies (taint-aware: callers publish the semantic event afterwards).

Result<void> Kernel::copy_to_guest(Process& p, VAddr dst, ByteSpan data) {
  auto r = p.as.copy_in(dst, data, /*user=*/true);
  if (r.ok()) {
    osi::GuestXfer xfer{p.info(), &p.as, dst, static_cast<u32>(data.size())};
    monitors_.on_kernel_write(xfer);
  }
  return r;
}

Result<Bytes> Kernel::copy_from_guest(Process& p, VAddr src, u32 len) {
  Bytes out(len);
  auto r = p.as.copy_out(src, out, /*user=*/true);
  if (!r.ok()) return Err<Bytes>(r.error().message);
  return out;
}

Result<std::string> Kernel::read_path_arg(Process& p, VAddr va) {
  return p.as.read_cstr(va, 512, /*user=*/true);
}

u32 Kernel::alloc_handle(Process& p, Handle h) {
  u32 id = p.next_handle++;
  p.handles[id] = std::move(h);
  return id;
}

// ---------------------------------------------------------------------------
// Syscall dispatch.

void Kernel::dispatch_syscall(Process& p) {
  ++syscall_count_;
  if (monitors_.observes_syscalls()) {
    osi::SyscallEvent ev;
    ev.proc = p.info();
    ev.number = p.cpu.regs[vm::R0];
    ev.name = syscall_name(ev.number);
    ev.args[0] = p.cpu.regs[vm::R1];
    ev.args[1] = p.cpu.regs[vm::R2];
    ev.args[2] = p.cpu.regs[vm::R3];
    ev.args[3] = p.cpu.regs[vm::R4];
    monitors_.on_syscall(ev);
  }
  (void)run_syscall(p);
}

bool Kernel::run_syscall(Process& p) {
  auto& r = p.cpu.regs;
  const SyscallRow* row = find_syscall(r[vm::R0]);
  const SysResult res =
      row ? row->handler(*this, p, {r[vm::R1], r[vm::R2], r[vm::R3], r[vm::R4]})
          : kNtError;
  p.in_syscall = !res;
  if (p.in_syscall) {
    p.state = ProcState::kBlocked;
    return false;
  }
  r[vm::R0] = *res;
  return true;
}

}  // namespace faros::os
