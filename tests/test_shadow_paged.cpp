// Property tests for the paged shadow memory: randomized
// set/get/clear_range/frame-recycle sequences checked against a reference
// per-byte map model, plus unit coverage for the page-summary bookkeeping
// (tainted counts, page residency, mutation stamps) the engine's fast
// paths rely on.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/shadow.h"
#include "vm/phys_mem.h"

namespace faros::core {
namespace {

/// The pre-paging implementation, kept as the executable specification:
/// one hash-map entry per tainted byte.
class ReferenceShadow {
 public:
  ProvListId get(PAddr pa) const {
    auto it = map_.find(pa);
    return it == map_.end() ? kEmptyProv : it->second;
  }

  void set(PAddr pa, ProvListId id) {
    if (id == kEmptyProv) {
      map_.erase(pa);
    } else {
      map_[pa] = id;
    }
  }

  void clear_range(PAddr pa, u64 len) {
    for (u64 i = 0; i < len; ++i) map_.erase(pa + i);
  }

  void clear() { map_.clear(); }
  u64 tainted_bytes() const { return map_.size(); }
  const std::unordered_map<PAddr, ProvListId>& entries() const {
    return map_;
  }

 private:
  std::unordered_map<PAddr, ProvListId> map_;
};

/// Address pool mixing low RAM frames, page-boundary straddles, and the
/// synthetic high-PAddr spaces file/segment shadows borrow, so directory
/// keys span the whole 64-bit range.
PAddr random_pa(Rng& rng) {
  constexpr PAddr kBases[] = {
      0x0,            // frame 0 (cache sentinel edge case)
      0x1000,         // a plain low frame
      0x2000,         // adjacent frame (boundary straddles)
      0x7fff0,        // straddle region
      0x100000,       // distant frame
      0xffffffff000,  // high synthetic space
  };
  PAddr base = kBases[rng.below(std::size(kBases))];
  return base + rng.below(0x2000);  // reach into the following frame too
}

TEST(PagedShadowProperty, AgreesWithReferenceUnderRandomOps) {
  Rng rng(0xfa205'5add0u);
  ShadowMemory paged;
  ReferenceShadow ref;

  // Page residency must track taint exactly: a page whose last tainted
  // byte is cleared is dropped, so pages() equals the number of distinct
  // frames holding taint in the reference. (Checked periodically — the
  // reference walk is O(tainted bytes).)
  auto expect_no_empty_pages = [&](int op) {
    std::set<u64> frames;
    for (const auto& [pa, id] : ref.entries()) {
      frames.insert(pa >> ShadowMemory::kPageShift);
    }
    ASSERT_EQ(paged.pages(), frames.size()) << "op=" << op;
  };

  for (int op = 0; op < 200000; ++op) {
    if (op % 4096 == 0) expect_no_empty_pages(op);
    switch (rng.below(16)) {
      case 0: case 1: case 2: case 3: case 4: case 5: {
        // set: tainted (mostly) or explicit clear via id 0
        PAddr pa = random_pa(rng);
        ProvListId id = rng.chance(0.2)
                            ? kEmptyProv
                            : static_cast<ProvListId>(rng.range(1, 64));
        paged.set(pa, id);
        ref.set(pa, id);
        break;
      }
      case 6: case 7: case 8: case 9: case 10: case 11: {
        PAddr pa = random_pa(rng);
        ASSERT_EQ(paged.get(pa), ref.get(pa)) << "pa=" << pa;
        break;
      }
      case 12: case 13: {
        // clear_range of arbitrary, possibly page-straddling extent
        PAddr pa = random_pa(rng);
        u64 len = rng.below(2 * ShadowMemory::kPageBytes);
        paged.clear_range(pa, len);
        ref.clear_range(pa, len);
        break;
      }
      case 14: {
        // frame recycle: exactly what on_frame_recycled does
        PAddr frame = random_pa(rng) & ~static_cast<PAddr>(
                                           ShadowMemory::kPageMask);
        paged.clear_range(frame, vm::kPageSize);
        ref.clear_range(frame, vm::kPageSize);
        break;
      }
      case 15: {
        // const-path get must agree with the cached hot-path get
        const ShadowMemory& cpaged = paged;
        PAddr pa = random_pa(rng);
        ASSERT_EQ(cpaged.get(pa), ref.get(pa));
        break;
      }
    }
    ASSERT_EQ(paged.tainted_bytes(), ref.tainted_bytes()) << "op=" << op;
  }

  expect_no_empty_pages(200000);

  // Exhaustive final agreement in both directions: every byte the paged
  // shadow reports exists identically in the reference...
  std::map<PAddr, ProvListId> from_paged;
  paged.for_each_tainted([&](PAddr pa, ProvListId id) {
    EXPECT_TRUE(from_paged.emplace(pa, id).second)
        << "duplicate visit of pa=" << pa;
  });
  ASSERT_EQ(from_paged.size(), ref.entries().size());
  for (const auto& [pa, id] : ref.entries()) {
    auto it = from_paged.find(pa);
    ASSERT_NE(it, from_paged.end()) << "missing pa=" << pa;
    EXPECT_EQ(it->second, id) << "pa=" << pa;
  }
}

TEST(PagedShadow, PageResidencyFollowsTaint) {
  ShadowMemory s;
  EXPECT_EQ(s.pages(), 0u);
  s.set(0x1000, 7);
  s.set(0x1fff, 9);
  s.set(0x3000, 5);
  EXPECT_EQ(s.pages(), 2u);
  EXPECT_EQ(s.tainted_bytes(), 3u);

  // Clearing the last tainted byte of a page drops the page: an empty
  // page is pure overhead (directory slot + 16KiB of zeros) and its
  // absence is what keeps the clean fast paths one-probe cheap.
  s.set(0x1000, kEmptyProv);
  EXPECT_EQ(s.pages(), 2u);  // 0x1fff still taints frame 1
  s.set(0x1fff, kEmptyProv);
  EXPECT_EQ(s.pages(), 1u);
  EXPECT_EQ(s.tainted_bytes(), 1u);
  EXPECT_FALSE(s.page_tainted(0x1000));
  // Re-clearing an absent page is a no-op.
  s.clear_range(0x1000, ShadowMemory::kPageBytes);
  EXPECT_EQ(s.pages(), 1u);
  // A partial clear_range that empties the page drops it too.
  s.set(0x3001, 6);
  EXPECT_EQ(s.pages(), 1u);
  s.clear_range(0x3000, 2);  // clears both remaining bytes of frame 3
  EXPECT_EQ(s.pages(), 0u);
  EXPECT_EQ(s.tainted_bytes(), 0u);

  // Whole-page clear_range drops the page without a byte walk.
  s.set(0x3000, 5);
  s.clear_range(0x3000, ShadowMemory::kPageBytes);
  EXPECT_EQ(s.pages(), 0u);
  EXPECT_EQ(s.tainted_bytes(), 0u);
}

TEST(PagedShadow, RangeAndPageProbes) {
  ShadowMemory s;
  EXPECT_FALSE(s.range_tainted(0x0, 8));
  EXPECT_FALSE(s.page_tainted(0x1234));

  s.set(0x1ffe, 3);  // near the end of frame 1
  EXPECT_TRUE(s.page_tainted(0x1000));
  EXPECT_TRUE(s.page_tainted(0x1fff));
  EXPECT_FALSE(s.page_tainted(0x2000));
  // An 8-byte probe straddling frames 1 and 2 sees frame 1's taint.
  EXPECT_TRUE(s.range_tainted(0x1ffc, 8));
  // A probe fully inside clean frame 2 does not.
  EXPECT_FALSE(s.range_tainted(0x2000, 8));
  // Probes see through the one-entry frame cache after a clear.
  s.clear_range(0x1000, ShadowMemory::kPageBytes);
  EXPECT_FALSE(s.range_tainted(0x1ffc, 8));
}

TEST(PagedShadow, VersionStampsAreMonotonicAndChangeOnMutation) {
  ShadowMemory s;
  EXPECT_EQ(s.page_version(0x5000), 0u);
  s.set(0x5000, 1);
  u64 v1 = s.page_version(0x5000);
  ASSERT_NE(v1, 0u);

  // Redundant write (same id): no semantic change, stamp must hold so the
  // engine's fetch cache stays valid.
  s.set(0x5000, 1);
  EXPECT_EQ(s.page_version(0x5000), v1);

  s.set(0x5001, 2);
  u64 v2 = s.page_version(0x5000);
  EXPECT_GT(v2, v1);

  // Partial clear bumps; recreation after a full drop must not reuse an
  // old stamp (ABA), so the new stamp is strictly larger still.
  s.clear_range(0x5001, 1);
  u64 v3 = s.page_version(0x5000);
  EXPECT_GT(v3, v2);
  s.clear_range(0x5000, ShadowMemory::kPageBytes);
  EXPECT_EQ(s.page_version(0x5000), 0u);
  s.set(0x5000, 4);
  EXPECT_GT(s.page_version(0x5000), v3);
}

// Regression: ranges at the very top of the 64-bit physical space used to
// compute pa + len (or pa + len - 1) and wrap, so the end frame came out
// as ~0 or 0 and the walk either skipped every page silently or read the
// wrong extent. Both probes and clears must clamp to the last byte.
TEST(PagedShadow, TopOfPhysicalMemoryRangesDoNotOverflow) {
  constexpr PAddr kTop = ~static_cast<PAddr>(0);        // 0xffff...ffff
  constexpr PAddr kLastFrame = kTop & ~static_cast<PAddr>(
                                          ShadowMemory::kPageMask);

  ShadowMemory s;
  s.set(kTop, 42);
  EXPECT_EQ(s.get(kTop), 42u);

  // pa + len == 2^64 exactly (range ends at the last byte).
  EXPECT_TRUE(s.range_tainted(kLastFrame, ShadowMemory::kPageBytes));
  EXPECT_TRUE(s.range_tainted(kTop, 1));
  // pa + len wraps *past* 2^64: the probe must still see the taint, not
  // compute an end frame of 0 and skip the walk.
  EXPECT_TRUE(s.range_tainted(kLastFrame - 8, 3 * ShadowMemory::kPageBytes));
  EXPECT_TRUE(s.range_tainted(kTop, 8));
  EXPECT_TRUE(s.range_tainted(kTop - 3, 100));

  // A clamped probe must not report taint that is not there.
  ShadowMemory clean;
  clean.set(0x1000, 7);  // low page only
  EXPECT_FALSE(clean.range_tainted(kTop - 100, 500));

  // clear_range with a wrapping extent clears up to the top and stops.
  s.set(kLastFrame, 9);
  s.set(kLastFrame - 1, 11);  // second-to-last frame, must survive
  s.clear_range(kLastFrame, 2 * ShadowMemory::kPageBytes);
  EXPECT_EQ(s.get(kTop), kEmptyProv);
  EXPECT_EQ(s.get(kLastFrame), kEmptyProv);
  EXPECT_EQ(s.get(kLastFrame - 1), 11u);
  EXPECT_EQ(s.tainted_bytes(), 1u);

  // len == 0 at the top is a no-op, not a full-range clear.
  s.clear_range(kTop, 0);
  EXPECT_FALSE(s.range_tainted(kTop, 0));
  EXPECT_EQ(s.get(kLastFrame - 1), 11u);
}

// fill() is a bulk set(): same bytes, counts, stamps and probe counters
// as the single-byte sets it replaces, over a page that is absent, one
// already holding some bytes (equal and different ids), and a run ending
// at the page's last byte.
TEST(PagedShadow, FillMatchesSingleByteSets) {
  obs::MetricSink fill_sink, set_sink;
  ShadowMemory filled, reference;
  filled.bind_obs(&fill_sink);
  reference.bind_obs(&set_sink);
  for (ShadowMemory* s : {&filled, &reference}) {
    s->set(0x3010, 5);
    s->set(0x3011, 9);
    s->set(0x5000, 2);  // another page, so the frame cache moves
  }
  struct Run {
    PAddr pa;
    u32 n;
    ProvListId id;
  };
  const Run runs[] = {{0x3008, 16, 9}, {0x4f00, 0x100, 7}, {0x3ffc, 4, 9},
                      {0x3008, 16, 9}};
  for (const Run& r : runs) {
    filled.fill(r.pa, r.n, r.id);
    for (u32 i = 0; i < r.n; ++i) reference.set(r.pa + i, r.id);
    EXPECT_EQ(filled.tainted_bytes(), reference.tainted_bytes());
    EXPECT_EQ(filled.pages(), reference.pages());
    for (PAddr page : {0x3000u, 0x4000u, 0x5000u}) {
      EXPECT_EQ(filled.page_version(page), reference.page_version(page))
          << std::hex << page;
      for (u32 o = 0; o < ShadowMemory::kPageBytes; ++o) {
        ASSERT_EQ(filled.get(page + o), reference.get(page + o))
            << std::hex << page + o;
      }
    }
  }
  EXPECT_EQ(fill_sink.snapshot().counters, set_sink.snapshot().counters);
}

// StorageShadow::any(id) follows the bytes of one id exactly: set, reset
// to another list, clear, and ids whose keys could share a hash.
TEST(StorageShadowUnit, AnyTracksTheBytesOfEachId) {
  StorageShadow s;
  EXPECT_FALSE(s.any(1));
  s.set(1, 4097, 3);
  s.set(1, 4097, 4);  // overwrite: still one byte
  s.set(2, 0, 5);
  EXPECT_TRUE(s.any(1));
  EXPECT_TRUE(s.any(2));
  s.set(1, 4097, kEmptyProv);
  EXPECT_FALSE(s.any(1));
  EXPECT_TRUE(s.any(2));
  s.set(1, 12, kEmptyProv);  // clearing an absent byte changes nothing
  EXPECT_FALSE(s.any(1));
  EXPECT_EQ(s.tainted_bytes(), 1u);
}

TEST(PagedShadow, ClearResetsEverything) {
  ShadowMemory s;
  for (u32 i = 0; i < 4; ++i) s.set(0x1000 * i + i, i + 1);
  ASSERT_GT(s.tainted_bytes(), 0u);
  s.clear();
  EXPECT_EQ(s.tainted_bytes(), 0u);
  EXPECT_EQ(s.pages(), 0u);
  EXPECT_EQ(s.get(0x1001), kEmptyProv);
  u64 visits = 0;
  s.for_each_tainted([&](PAddr, ProvListId) { ++visits; });
  EXPECT_EQ(visits, 0u);
}

}  // namespace
}  // namespace faros::core
