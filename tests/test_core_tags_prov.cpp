// Tags (3-byte prov_tag, per-type hash maps) and interned provenance lists.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/provenance.h"
#include "core/shadow.h"

namespace faros::core {
namespace {

TEST(ProvTag, PackUnpackRoundTripAllTypes) {
  for (TagType type : {TagType::kNetflow, TagType::kProcess, TagType::kFile,
                       TagType::kExportTable}) {
    for (u16 index : {u16{0}, u16{1}, u16{255}, u16{256}, u16{0xffff}}) {
      ProvTag tag(type, index);
      u8 packed[3];
      tag.pack(packed);
      EXPECT_EQ(packed[0], static_cast<u8>(type));
      auto back = ProvTag::unpack(packed);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, tag);
    }
  }
}

TEST(ProvTag, UnpackRejectsBadType) {
  u8 bad1[3] = {0, 0, 0};
  u8 bad2[3] = {5, 0, 0};
  EXPECT_FALSE(ProvTag::unpack(bad1).has_value());
  EXPECT_FALSE(ProvTag::unpack(bad2).has_value());
}

TEST(ProvTag, KeysAreDistinctAcrossTypes) {
  EXPECT_NE(ProvTag::netflow(1).key(), ProvTag::process(1).key());
  EXPECT_NE(ProvTag::file(1).key(), ProvTag::process(1).key());
  EXPECT_NE(ProvTag::netflow(1).key(), ProvTag::netflow(2).key());
}

TEST(NetflowMap, InternIsIdempotentAndOrdered) {
  NetflowMap map;
  FlowTuple a{1, 2, 3, 4};
  FlowTuple b{5, 6, 7, 8};
  u16 ia = map.intern(a);
  u16 ib = map.intern(b);
  EXPECT_EQ(map.intern(a), ia);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(map.get(ia), a);
  EXPECT_EQ(map.get(ib), b);
  EXPECT_EQ(map.size(), 2u);
}

TEST(NetflowMap, TuplesWithCollidingHashesInternApart) {
  // These two tuples share one hash_combine key: interning by the hash
  // gave them one tag, and the second rendered as the first.
  NetflowMap map;
  const FlowTuple a{0xa9fe39a8, 49152, 0xa9fe1aa1, 4444};
  const FlowTuple b{0xa9fe39a8, 49152, 0xa9fe1aa2, 349};
  const u16 ia = map.intern(a);
  const u16 ib = map.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(map.get(ia), a);
  EXPECT_EQ(map.get(ib), b);
  EXPECT_EQ(map.size(), 2u);
}

TEST(ProcessMap, ReusedCr3GetsFreshEntryForNewPid) {
  ProcessMap map;
  u16 a = map.add(0x1000, 100, "a.exe");
  // The frame backing CR3 0x1000 got recycled into a new process.
  u16 b = map.add(0x1000, 200, "b.exe");
  EXPECT_NE(a, b);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.get(a).name, "a.exe");  // history preserved
  EXPECT_EQ(map.get(a).pid, 100u);
  EXPECT_EQ(map.get(b).name, "b.exe");
  EXPECT_EQ(map.get(b).cr3, 0x1000u);
}

TEST(FileMap, VersionsInternSeparately) {
  FileMap map;
  u16 v1 = map.intern(7, 1, "C:/x");
  u16 v2 = map.intern(7, 2, "C:/x");
  EXPECT_NE(v1, v2);
  EXPECT_EQ(map.intern(7, 1, "C:/x"), v1);
  EXPECT_EQ(map.get(v2).version, 2u);
}

TEST(TagMaps, DescribeRendersPaperStyle) {
  TagMaps maps;
  u16 nf = maps.netflow.intern(
      FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162});
  u16 proc = maps.process.add(0x2000, 1, "inject_client.exe");
  u16 file = maps.file.intern(1, 2, "C:/x.exe");
  EXPECT_EQ(maps.describe(ProvTag::netflow(nf)),
            "NetFlow: {src ip,port: 169.254.26.161:4444, "
            "dest ip,port: 169.254.57.168:49162}");
  EXPECT_EQ(maps.describe(ProvTag::process(proc)),
            "Process: inject_client.exe");
  EXPECT_EQ(maps.describe(ProvTag::file(file)), "File: C:/x.exe (v2)");
  EXPECT_EQ(maps.describe(ProvTag::export_table()), "ExportTable");
}

// ---------------------------------------------------------------------------

TEST(ProvStore, EmptyListIsIdZero) {
  ProvStore store;
  EXPECT_EQ(store.intern({}), kEmptyProv);
  EXPECT_TRUE(store.get(kEmptyProv).empty());
  EXPECT_FALSE(store.contains_type(kEmptyProv, TagType::kNetflow));
}

TEST(ProvStore, InternDedupesAndIsCanonical) {
  ProvStore store;
  auto a = store.intern({ProvTag::netflow(1), ProvTag::process(2)});
  auto b = store.intern(
      {ProvTag::netflow(1), ProvTag::process(2), ProvTag::netflow(1)});
  EXPECT_EQ(a, b);  // duplicate tag collapses
  auto c = store.intern({ProvTag::process(2), ProvTag::netflow(1)});
  EXPECT_NE(a, c);  // order is chronology: different lists
}

TEST(ProvStore, AppendPreservesOrderAndIsIdempotent) {
  ProvStore store;
  auto id = store.intern({ProvTag::netflow(0)});
  auto id2 = store.append(id, ProvTag::process(1));
  auto id3 = store.append(id2, ProvTag::process(2));
  EXPECT_EQ(store.append(id3, ProvTag::process(1)), id3);  // already there
  const auto& tags = store.get(id3);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));
  EXPECT_EQ(tags[1], ProvTag::process(1));
  EXPECT_EQ(tags[2], ProvTag::process(2));
}

TEST(ProvStore, MergeIsUnionPreservingLeftOrder) {
  ProvStore store;
  auto a = store.intern({ProvTag::netflow(0), ProvTag::process(1)});
  auto b = store.intern({ProvTag::process(1), ProvTag::file(3)});
  auto m = store.merge(a, b);
  const auto& tags = store.get(m);
  ASSERT_EQ(tags.size(), 3u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));
  EXPECT_EQ(tags[1], ProvTag::process(1));
  EXPECT_EQ(tags[2], ProvTag::file(3));
  // Identities.
  EXPECT_EQ(store.merge(a, kEmptyProv), a);
  EXPECT_EQ(store.merge(kEmptyProv, b), b);
  EXPECT_EQ(store.merge(a, a), a);
}

TEST(ProvStore, TypeMaskAndProcessCount) {
  ProvStore store;
  auto id = store.intern({ProvTag::netflow(0), ProvTag::process(1),
                          ProvTag::process(2), ProvTag::export_table()});
  EXPECT_TRUE(store.contains_type(id, TagType::kNetflow));
  EXPECT_TRUE(store.contains_type(id, TagType::kProcess));
  EXPECT_TRUE(store.contains_type(id, TagType::kExportTable));
  EXPECT_FALSE(store.contains_type(id, TagType::kFile));
  EXPECT_EQ(store.process_count(id), 2u);
  EXPECT_EQ(store.process_count(kEmptyProv), 0u);
  EXPECT_TRUE(store.contains(id, ProvTag::process(2)));
  EXPECT_FALSE(store.contains(id, ProvTag::process(9)));
}

TEST(ProvStore, CapDropsNewestKeepsOrigin) {
  ProvStore store(/*cap=*/4);
  auto id = store.intern({ProvTag::netflow(0)});
  for (u16 i = 0; i < 10; ++i) id = store.append(id, ProvTag::process(i));
  const auto& tags = store.get(id);
  EXPECT_EQ(tags.size(), 4u);
  EXPECT_EQ(tags[0], ProvTag::netflow(0));  // origin survives
}

TEST(ProvStore, MergeAppendPropertyAgainstReferenceSets) {
  // Property: merge/append behave like ordered-set union/insert.
  ProvStore store;
  Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<ProvTag> av, bv;
    for (u32 i = 0; i < rng.below(6); ++i) {
      av.push_back(ProvTag(static_cast<TagType>(1 + rng.below(4)),
                           static_cast<u16>(rng.below(4))));
    }
    for (u32 i = 0; i < rng.below(6); ++i) {
      bv.push_back(ProvTag(static_cast<TagType>(1 + rng.below(4)),
                           static_cast<u16>(rng.below(4))));
    }
    auto a = store.intern(av);
    auto b = store.intern(bv);
    auto m = store.merge(a, b);
    // Reference: a's canonical list then b's new tags.
    std::vector<ProvTag> expect = store.get(a);
    for (const ProvTag& t : store.get(b)) {
      if (std::find(expect.begin(), expect.end(), t) == expect.end()) {
        expect.push_back(t);
      }
    }
    EXPECT_EQ(store.get(m), expect);
    // Merge is memoized: same call yields the same id.
    EXPECT_EQ(store.merge(a, b), m);
  }
}

// ---------------------------------------------------------------------------

TEST(ShadowMemory, SetGetClear) {
  ShadowMemory shadow;
  EXPECT_EQ(shadow.get(100), kEmptyProv);
  shadow.set(100, 5);
  shadow.set(101, 6);
  EXPECT_EQ(shadow.get(100), 5u);
  EXPECT_EQ(shadow.tainted_bytes(), 2u);
  shadow.set(100, kEmptyProv);  // erase
  EXPECT_EQ(shadow.get(100), kEmptyProv);
  EXPECT_EQ(shadow.tainted_bytes(), 1u);
  shadow.clear_range(90, 20);
  EXPECT_EQ(shadow.tainted_bytes(), 0u);
}

TEST(ShadowRegisters, ByteGranularityAndUnion) {
  ProvStore store;
  u64 epoch = 1;
  ShadowRegisters regs(&epoch);
  auto a = store.intern({ProvTag::netflow(0)});
  auto b = store.intern({ProvTag::file(1)});
  regs.set(3, 0, a);
  regs.set(3, 2, b);
  EXPECT_TRUE(regs.reg_tainted(3));
  EXPECT_FALSE(regs.reg_tainted(4));
  auto u = regs.reg_union(3, store);
  EXPECT_TRUE(store.contains_type(u, TagType::kNetflow));
  EXPECT_TRUE(store.contains_type(u, TagType::kFile));
  regs.clear_reg(3);
  EXPECT_FALSE(regs.reg_tainted(3));
  regs.set_all(5, a);
  EXPECT_EQ(regs.get(5, 3), a);
}

TEST(FileShadow, PerByteKeyedByFileAndOffset) {
  StorageShadow fs;
  fs.set(1, 0, 7);
  fs.set(1, 1, 8);
  fs.set(2, 0, 9);
  EXPECT_EQ(fs.get(1, 0), 7u);
  EXPECT_EQ(fs.get(1, 1), 8u);
  EXPECT_EQ(fs.get(2, 0), 9u);
  EXPECT_EQ(fs.get(2, 1), kEmptyProv);
  fs.set(1, 0, kEmptyProv);
  EXPECT_EQ(fs.get(1, 0), kEmptyProv);
  EXPECT_EQ(fs.tainted_bytes(), 2u);
}

}  // namespace
}  // namespace faros::core
