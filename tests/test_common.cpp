// Common utilities: strings, hashing, RNG determinism, byte IO, flow
// rendering, logging sink.
#include <gtest/gtest.h>

#include "common/bytesio.h"
#include "common/flow.h"
#include "common/hash.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/strings.h"

namespace faros {
namespace {

TEST(Strings, Strf) {
  EXPECT_EQ(strf("x=%d y=%s", 42, "hi"), "x=42 y=hi");
  EXPECT_EQ(strf("%s", ""), "");
}

TEST(Strings, Hex) {
  EXPECT_EQ(hex32(0x83b07019), "0x83b07019");
  EXPECT_EQ(hex32(0), "0x00000000");
  EXPECT_EQ(hex64(0x1234), "0x1234");
}

TEST(Strings, Ipv4RoundTrip) {
  EXPECT_EQ(ipv4_to_string(0xa9fe1aa1), "169.254.26.161");
  EXPECT_EQ(parse_ipv4("169.254.26.161"), 0xa9fe1aa1u);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_EQ(parse_ipv4("garbage"), 0u);
  EXPECT_EQ(parse_ipv4("300.1.1.1"), 0u);
}

TEST(Strings, SplitJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "/"), "a/b//c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("C:/Temp/x.exe", "C:/"));
  EXPECT_FALSE(starts_with("x", "xy"));
  EXPECT_TRUE(ends_with("payload.dll", ".dll"));
  EXPECT_FALSE(ends_with(".dll", "x.dll"));
}

TEST(Strings, ParseU64AcceptsPlainDecimalOnly) {
  u64 v = 7;
  EXPECT_TRUE(parse_u64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(parse_u64("18446744073709551615", &v));
  EXPECT_EQ(v, 18446744073709551615ull);
  // Sign, whitespace, empty input, radix prefixes, trailing junk and
  // overflow are all rejected, and a rejected parse leaves `out` alone.
  v = 7;
  for (const char* bad : {"-1", "+3", " 7", "7 ", "\t7", "", "0x10", "12a",
                          "18446744073709551616"}) {
    EXPECT_FALSE(parse_u64(bad, &v)) << '"' << bad << '"';
  }
  EXPECT_EQ(v, 7u);
}

TEST(Strings, ParseU32RejectsValuesAboveU32Max) {
  u32 v = 7;
  EXPECT_TRUE(parse_u32("4294967295", &v));
  EXPECT_EQ(v, 4294967295u);
  v = 7;
  // 2^32 must not truncate to 0; 2^64 must not wrap either.
  for (const char* bad : {"4294967296", "18446744073709551616", "-1", "",
                          " 1"}) {
    EXPECT_FALSE(parse_u32(bad, &v)) << '"' << bad << '"';
  }
  EXPECT_EQ(v, 7u);
}

TEST(Strings, Hexdump) {
  Bytes data{'H', 'i', 0x00, 0xff};
  std::string dump = hexdump(data, 0x1000);
  EXPECT_NE(dump.find("00001000"), std::string::npos);
  EXPECT_NE(dump.find("48 69 00 ff"), std::string::npos);
  EXPECT_NE(dump.find("|Hi..|"), std::string::npos);
}

TEST(Hash, Fnv1aKnownValuesAndStability) {
  // FNV-1a of the empty input is the offset basis.
  EXPECT_EQ(fnv1a32(std::string_view("")), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32(std::string_view("a")), 0xe40c292cu);
  // String and byte-span forms agree.
  Bytes bytes{'n', 't', 'd', 'l', 'l'};
  EXPECT_EQ(fnv1a32(std::string_view("ntdll")), fnv1a32(ByteSpan(bytes)));
  // Distinct module names used by the loader hash distinctly.
  EXPECT_NE(fnv1a32(std::string_view("ntdll.dll")),
            fnv1a32(std::string_view("user32.dll")));
}

TEST(Hash, Combine) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
  EXPECT_NE(hash_combine(0, 0), 0u);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
  Rng c(54321);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
    u64 v = rng.range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
  }
  EXPECT_EQ(rng.below(0), 0u);
  EXPECT_EQ(rng.bytes(16).size(), 16u);
}

TEST(ByteIo, RoundTripAllWidths) {
  ByteWriter w;
  w.put_u8(0xab);
  w.put_u16(0x1234);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0102030405060708ull);
  w.put_str("hello");
  w.put_blob(Bytes{9, 8, 7});
  Bytes wire = w.take();

  ByteReader r(wire);
  EXPECT_EQ(r.get_u8(), 0xabu);
  EXPECT_EQ(r.get_u16(), 0x1234u);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0102030405060708ull);
  EXPECT_EQ(r.get_str(), "hello");
  EXPECT_EQ(r.get_blob(), (Bytes{9, 8, 7}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteIo, TruncationSetsNotOk) {
  ByteWriter w;
  w.put_u16(7);
  ByteReader r(w.bytes());
  r.get_u32();  // wants 4, has 2
  EXPECT_FALSE(r.ok());
  // Blob length larger than remaining data.
  ByteWriter w2;
  w2.put_u32(100);
  ByteReader r2(w2.bytes());
  EXPECT_TRUE(r2.get_blob().empty());
  EXPECT_FALSE(r2.ok());
}

TEST(Flow, PaperStyleRendering) {
  FlowTuple f{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};
  EXPECT_EQ(f.to_string(),
            "{src ip,port: 169.254.26.161:4444, "
            "dest ip,port: 169.254.57.168:49162}");
}

TEST(Log, SinkCapturesAndLevelFilters) {
  std::vector<std::string> captured;
  auto prev = Log::set_sink(
      [&](LogLevel, const std::string& msg) { captured.push_back(msg); });
  LogLevel prev_level = Log::level();
  Log::set_level(LogLevel::kWarn);

  FAROS_DEBUG() << "hidden";
  FAROS_WARN() << "visible " << 42;
  ASSERT_EQ(captured.size(), 1u);
  EXPECT_EQ(captured[0], "visible 42");

  Log::set_level(prev_level);
  Log::set_sink(prev);
}

}  // namespace
}  // namespace faros
