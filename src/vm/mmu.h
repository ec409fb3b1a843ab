// Two-level page tables, x86-32 style. Page tables live in guest physical
// memory and the root ("CR3") is a physical address that uniquely identifies
// an address space — FAROS uses the CR3 value as its architecture-level
// process tag, exactly as the paper does.
#pragma once

#include <optional>

#include "common/result.h"
#include "common/types.h"
#include "vm/phys_mem.h"

namespace faros::vm {

/// PTE / PDE flag bits (low 12 bits of the 32-bit entry).
enum PteFlags : u32 {
  kPtePresent = 0x1,
  kPteWrite = 0x2,
  kPteExec = 0x4,
  kPteUser = 0x8,
};

inline constexpr u32 kPteFlagMask = 0xfff;
inline constexpr u32 kEntriesPerTable = kPageSize / 4;  // 1024

/// Start of the shared kernel half of every address space.
inline constexpr VAddr kKernelBase = 0xC0000000u;

enum class AccessType { kRead, kWrite, kExec };

enum class FaultKind {
  kNotMapped,
  kProtWrite,
  kProtExec,
  kNotUser,
};

struct Fault {
  VAddr va = 0;
  FaultKind kind = FaultKind::kNotMapped;
};

const char* fault_kind_name(FaultKind kind);

/// One guest address space: a page directory plus the page tables hanging
/// off it. Copyable handle; the backing state is all in guest RAM.
class AddressSpace {
 public:
  AddressSpace() = default;

  /// Allocates and zeroes a fresh page directory.
  static Result<AddressSpace> create(PhysMem& mem, FrameAllocator& frames);

  /// Wraps an existing directory (used when restoring from CR3).
  static AddressSpace adopt(PhysMem& mem, FrameAllocator& frames, PAddr cr3);

  PAddr cr3() const { return cr3_; }
  bool valid() const { return mem_ != nullptr; }

  /// Ensures the second-level table covering `va` exists (without mapping
  /// anything). Used to pre-create all kernel page tables at boot so the
  /// kernel-half directory entries are stable before any process copies
  /// them via share_directory_range().
  Result<void> ensure_table(VAddr va);

  /// Maps one page va -> pa with `flags` (kPtePresent is implied).
  Result<void> map_page(VAddr va, PAddr pa, u32 flags);
  /// Maps `len` bytes starting at page-aligned `va`, allocating frames.
  Result<void> map_alloc(VAddr va, u32 len, u32 flags);
  /// Removes the mapping; optionally frees the backing frame.
  Result<void> unmap_page(VAddr va, bool free_frame);
  Result<void> unmap_range(VAddr va, u32 len, bool free_frames);
  /// Rewrites the protection flags of an existing mapping.
  Result<void> protect_range(VAddr va, u32 len, u32 flags);

  /// Copies the page-directory entries covering [va_lo, va_hi) from
  /// `other`, so both spaces share the same second-level tables. This is
  /// how the kernel half is kept identical across processes.
  void share_directory_range(const AddressSpace& other, VAddr va_lo,
                             VAddr va_hi);

  /// Walks the tables. Returns the physical address, or nullopt and fills
  /// `fault`. `user` access to a supervisor page faults with kNotUser.
  std::optional<PAddr> translate(VAddr va, AccessType type, bool user,
                                 Fault* fault = nullptr) const;

  /// Raw PTE for `va` (present bit included), or nullopt when unmapped.
  /// Used by the interpreter's TLB to cache translation + protection in
  /// one lookup.
  std::optional<u32> lookup_pte(VAddr va) const;

  /// True iff the page containing `va` is mapped at all.
  bool is_mapped(VAddr va) const;
  /// Flags of the PTE mapping `va` (0 when unmapped).
  u32 page_flags(VAddr va) const;

  /// Releases the page directory and all user-half page tables and frames.
  /// Kernel-half tables are shared and never freed here.
  void destroy(bool free_user_frames);

  // --- bulk copies used by the kernel; they translate page by page.
  // `user` selects whether user-mode protections are enforced.
  Result<void> copy_in(VAddr va, ByteSpan data, bool user);
  Result<void> copy_out(VAddr va, MutByteSpan out, bool user) const;

  /// Reads a NUL-terminated guest string (bounded by `max_len`).
  Result<std::string> read_cstr(VAddr va, u32 max_len, bool user) const;

  u32 read32_or(VAddr va, u32 fallback) const;

 private:
  AddressSpace(PhysMem* mem, FrameAllocator* frames, PAddr cr3)
      : mem_(mem), frames_(frames), cr3_(cr3) {}

  u32 pde_index(VAddr va) const { return va >> 22; }
  u32 pte_index(VAddr va) const { return (va >> 12) & 0x3ff; }

  /// The only way page-table memory is written: stores `entry` and bumps
  /// the PhysMem page-table epoch so interpreter TLBs drop stale entries.
  void write_pt(PAddr pa, u32 entry);
  void zero_table(PAddr table);

  PhysMem* mem_ = nullptr;
  FrameAllocator* frames_ = nullptr;
  PAddr cr3_ = 0;
};

}  // namespace faros::vm
