#include "vm/mmu.h"

#include "common/strings.h"

namespace faros::vm {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNotMapped: return "not-mapped";
    case FaultKind::kProtWrite: return "write-protect";
    case FaultKind::kProtExec: return "exec-protect";
    case FaultKind::kNotUser: return "supervisor-page";
  }
  return "?";
}

Result<AddressSpace> AddressSpace::create(PhysMem& mem,
                                          FrameAllocator& frames) {
  auto dir = frames.alloc();
  if (!dir.ok()) return Err<AddressSpace>("mmu: " + dir.error().message);
  AddressSpace as(&mem, &frames, dir.value());
  as.zero_table(dir.value());
  return as;
}

AddressSpace AddressSpace::adopt(PhysMem& mem, FrameAllocator& frames,
                                 PAddr cr3) {
  return AddressSpace(&mem, &frames, cr3);
}

void AddressSpace::write_pt(PAddr pa, u32 entry) {
  mem_->write32(pa, entry);
  mem_->bump_pt_epoch();
}

void AddressSpace::zero_table(PAddr table) {
  for (u32 i = 0; i < kEntriesPerTable; ++i) write_pt(table + i * 4, 0);
}

Result<void> AddressSpace::ensure_table(VAddr va) {
  PAddr pde_addr = cr3_ + pde_index(va) * 4;
  u32 pde = mem_->read32(pde_addr);
  if (pde & kPtePresent) return Ok();
  auto t = frames_->alloc();
  if (!t.ok()) return Err<void>("mmu: " + t.error().message);
  zero_table(t.value());
  write_pt(pde_addr, static_cast<u32>(t.value()) | kPtePresent);
  return Ok();
}

Result<void> AddressSpace::map_page(VAddr va, PAddr pa, u32 flags) {
  if (page_offset(va) != 0 || page_offset(static_cast<u32>(pa)) != 0) {
    return Err<void>("mmu: unaligned mapping " + hex32(va));
  }
  PAddr pde_addr = cr3_ + pde_index(va) * 4;
  u32 pde = mem_->read32(pde_addr);
  PAddr table;
  if (!(pde & kPtePresent)) {
    auto t = frames_->alloc();
    if (!t.ok()) return Err<void>("mmu: " + t.error().message);
    table = t.value();
    zero_table(table);
    write_pt(pde_addr, static_cast<u32>(table) | kPtePresent);
  } else {
    table = pde & ~kPteFlagMask;
  }
  PAddr pte_addr = table + pte_index(va) * 4;
  write_pt(pte_addr,
           static_cast<u32>(pa) | (flags & kPteFlagMask) | kPtePresent);
  return Ok();
}

Result<void> AddressSpace::map_alloc(VAddr va, u32 len, u32 flags) {
  if (len == 0) return Ok();
  VAddr lo = page_floor(va);
  VAddr hi = page_floor(va + len - 1) + kPageSize;  // may wrap to 0 at top
  for (VAddr p = lo; p != hi; p += kPageSize) {
    if (is_mapped(p)) continue;  // idempotent growth of a region
    auto frame = frames_->alloc();
    if (!frame.ok()) return Err<void>("mmu: " + frame.error().message);
    // Fresh frames are zeroed so processes never observe stale data.
    Bytes zero(kPageSize, 0);
    mem_->write(frame.value(), zero);
    auto r = map_page(p, frame.value(), flags);
    if (!r.ok()) return r;
    if (p + kPageSize < p) break;  // wrapped at top of address space
  }
  return Ok();
}

Result<void> AddressSpace::unmap_page(VAddr va, bool free_frame) {
  PAddr pde_addr = cr3_ + pde_index(va) * 4;
  u32 pde = mem_->read32(pde_addr);
  if (!(pde & kPtePresent)) return Err<void>("mmu: unmap of unmapped page");
  PAddr table = pde & ~kPteFlagMask;
  PAddr pte_addr = table + pte_index(va) * 4;
  u32 pte = mem_->read32(pte_addr);
  if (!(pte & kPtePresent)) return Err<void>("mmu: unmap of unmapped page");
  if (free_frame) frames_->free(pte & ~kPteFlagMask);
  write_pt(pte_addr, 0);
  return Ok();
}

Result<void> AddressSpace::unmap_range(VAddr va, u32 len, bool free_frames) {
  if (len == 0) return Ok();
  VAddr lo = page_floor(va);
  VAddr hi = page_floor(va + len - 1) + kPageSize;
  for (VAddr p = lo; p != hi; p += kPageSize) {
    if (is_mapped(p)) {
      auto r = unmap_page(p, free_frames);
      if (!r.ok()) return r;
    }
    if (p + kPageSize < p) break;
  }
  return Ok();
}

Result<void> AddressSpace::protect_range(VAddr va, u32 len, u32 flags) {
  if (len == 0) return Ok();
  VAddr lo = page_floor(va);
  VAddr hi = page_floor(va + len - 1) + kPageSize;
  for (VAddr p = lo; p != hi; p += kPageSize) {
    PAddr pde_addr = cr3_ + pde_index(p) * 4;
    u32 pde = mem_->read32(pde_addr);
    if (!(pde & kPtePresent)) return Err<void>("mmu: protect of unmapped");
    PAddr table = pde & ~kPteFlagMask;
    PAddr pte_addr = table + pte_index(p) * 4;
    u32 pte = mem_->read32(pte_addr);
    if (!(pte & kPtePresent)) return Err<void>("mmu: protect of unmapped");
    write_pt(pte_addr,
             (pte & ~kPteFlagMask) | (flags & kPteFlagMask) | kPtePresent);
    if (p + kPageSize < p) break;
  }
  return Ok();
}

void AddressSpace::share_directory_range(const AddressSpace& other,
                                         VAddr va_lo, VAddr va_hi) {
  for (u32 idx = va_lo >> 22; idx <= ((va_hi - 1) >> 22); ++idx) {
    write_pt(cr3_ + idx * 4, mem_->read32(other.cr3_ + idx * 4));
  }
}

std::optional<PAddr> AddressSpace::translate(VAddr va, AccessType type,
                                             bool user, Fault* fault) const {
  auto fail = [&](FaultKind kind) -> std::optional<PAddr> {
    if (fault) *fault = Fault{va, kind};
    return std::nullopt;
  };
  if (!valid()) return fail(FaultKind::kNotMapped);  // destroyed space
  u32 pde = mem_->read32(cr3_ + pde_index(va) * 4);
  if (!(pde & kPtePresent)) return fail(FaultKind::kNotMapped);
  PAddr table = pde & ~kPteFlagMask;
  u32 pte = mem_->read32(table + pte_index(va) * 4);
  if (!(pte & kPtePresent)) return fail(FaultKind::kNotMapped);
  // Protection bits only constrain user-mode accesses; the (native) kernel
  // has full access to any mapped page, like an x86 kernel with CR0.WP=0.
  if (user) {
    if (!(pte & kPteUser)) return fail(FaultKind::kNotUser);
    if (type == AccessType::kWrite && !(pte & kPteWrite)) {
      return fail(FaultKind::kProtWrite);
    }
    if (type == AccessType::kExec && !(pte & kPteExec)) {
      return fail(FaultKind::kProtExec);
    }
  }
  return (pte & ~kPteFlagMask) | page_offset(va);
}

std::optional<u32> AddressSpace::lookup_pte(VAddr va) const {
  if (!valid()) return std::nullopt;
  u32 pde = mem_->read32(cr3_ + pde_index(va) * 4);
  if (!(pde & kPtePresent)) return std::nullopt;
  PAddr table = pde & ~kPteFlagMask;
  u32 pte = mem_->read32(table + pte_index(va) * 4);
  if (!(pte & kPtePresent)) return std::nullopt;
  return pte;
}

bool AddressSpace::is_mapped(VAddr va) const {
  return translate(va, AccessType::kRead, /*user=*/false).has_value();
}

u32 AddressSpace::page_flags(VAddr va) const {
  u32 pde = mem_->read32(cr3_ + pde_index(va) * 4);
  if (!(pde & kPtePresent)) return 0;
  PAddr table = pde & ~kPteFlagMask;
  u32 pte = mem_->read32(table + pte_index(va) * 4);
  if (!(pte & kPtePresent)) return 0;
  return pte & kPteFlagMask;
}

void AddressSpace::destroy(bool free_user_frames) {
  if (!valid()) return;
  // Walk only the user half: kernel-half tables are shared across spaces.
  for (u32 idx = 0; idx < (kKernelBase >> 22); ++idx) {
    u32 pde = mem_->read32(cr3_ + idx * 4);
    if (!(pde & kPtePresent)) continue;
    PAddr table = pde & ~kPteFlagMask;
    if (free_user_frames) {
      for (u32 t = 0; t < kEntriesPerTable; ++t) {
        u32 pte = mem_->read32(table + t * 4);
        if (pte & kPtePresent) frames_->free(pte & ~kPteFlagMask);
      }
    }
    frames_->free(table);
    write_pt(cr3_ + idx * 4, 0);
  }
  frames_->free(cr3_);
  mem_ = nullptr;
}

Result<void> AddressSpace::copy_in(VAddr va, ByteSpan data, bool user) {
  u32 done = 0;
  while (done < data.size()) {
    Fault fault;
    auto pa = translate(va + done, AccessType::kWrite, user, &fault);
    if (!pa) {
      return Err<void>(strf("mmu: copy_in fault at %s (%s)",
                            hex32(va + done).c_str(),
                            fault_kind_name(fault.kind)));
    }
    u32 chunk = std::min<u32>(static_cast<u32>(data.size()) - done,
                              kPageSize - page_offset(va + done));
    mem_->write(*pa, data.subspan(done, chunk));
    done += chunk;
  }
  return Ok();
}

Result<void> AddressSpace::copy_out(VAddr va, MutByteSpan out,
                                    bool user) const {
  u32 done = 0;
  while (done < out.size()) {
    Fault fault;
    auto pa = translate(va + done, AccessType::kRead, user, &fault);
    if (!pa) {
      return Err<void>(strf("mmu: copy_out fault at %s (%s)",
                            hex32(va + done).c_str(),
                            fault_kind_name(fault.kind)));
    }
    u32 chunk = std::min<u32>(static_cast<u32>(out.size()) - done,
                              kPageSize - page_offset(va + done));
    mem_->read(*pa, out.subspan(done, chunk));
    done += chunk;
  }
  return Ok();
}

Result<std::string> AddressSpace::read_cstr(VAddr va, u32 max_len,
                                            bool user) const {
  std::string out;
  for (u32 i = 0; i < max_len; ++i) {
    auto pa = translate(va + i, AccessType::kRead, user);
    if (!pa) return Err<std::string>("mmu: string read fault");
    u8 c = mem_->read8(*pa);
    if (c == 0) return out;
    out.push_back(static_cast<char>(c));
  }
  return Err<std::string>("mmu: unterminated string");
}

u32 AddressSpace::read32_or(VAddr va, u32 fallback) const {
  u32 buf = 0;
  MutByteSpan span(reinterpret_cast<u8*>(&buf), 4);
  auto r = copy_out(va, span, /*user=*/false);
  return r.ok() ? buf : fallback;
}

}  // namespace faros::vm
