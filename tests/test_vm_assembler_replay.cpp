// Assembler (labels, fixups, data directives) and replay-log serialization.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "vm/assembler.h"
#include "vm/replay.h"

namespace faros::vm {
namespace {

TEST(Assembler, ForwardAndBackwardLabels) {
  Assembler a;
  a.jmp("fwd");       // forward reference
  a.label("back");
  a.halt();
  a.label("fwd");
  a.jmp("back");      // backward reference
  auto blob = a.assemble(0x1000);
  ASSERT_TRUE(blob.ok());
  // insn0: jmp +8 (to offset 16 from next=8).
  auto insn0 = decode(ByteSpan(blob.value().data(), 8));
  ASSERT_TRUE(insn0);
  EXPECT_EQ(insn0->simm(), 8);
  // insn2 at offset 16: jmp back to offset 8: target 8, next = 24 -> -16.
  auto insn2 = decode(ByteSpan(blob.value().data() + 16, 8));
  ASSERT_TRUE(insn2);
  EXPECT_EQ(insn2->simm(), -16);
}

TEST(Assembler, AbsoluteLabelsUseBase) {
  Assembler a;
  a.movi_label(R1, "data");
  a.halt();
  a.label("data");
  a.data_u32(42);
  auto blob = a.assemble(0x400000);
  ASSERT_TRUE(blob.ok());
  auto insn = decode(ByteSpan(blob.value().data(), 8));
  ASSERT_TRUE(insn);
  EXPECT_EQ(insn->imm, 0x400000u + 16);
}

TEST(Assembler, UndefinedLabelFailsWithName) {
  Assembler a;
  a.jmp("missing");
  auto blob = a.assemble(0);
  ASSERT_FALSE(blob.ok());
  EXPECT_NE(blob.error().message.find("missing"), std::string::npos);
}

TEST(Assembler, DuplicateLabelFailsHardNamingTheLabel) {
  Assembler a;
  a.label("twice");
  a.nop();
  a.label("twice");
  a.jmp("twice");
  auto blob = a.assemble(0);
  ASSERT_FALSE(blob.ok());
  EXPECT_NE(blob.error().message.find("duplicate"), std::string::npos);
  EXPECT_NE(blob.error().message.find("twice"), std::string::npos);
  // The first definition wins for anything still consulting the table.
  auto off = a.label_offset("twice");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value(), 0u);
}

TEST(Assembler, AbsoluteFixupPastAddressSpaceFailsWithName) {
  Assembler a;
  a.movi_label(Reg::R1, "far");
  a.label("far");
  auto blob = a.assemble(0xfffffff8);  // label lands past 2^32
  ASSERT_FALSE(blob.ok());
  EXPECT_NE(blob.error().message.find("far"), std::string::npos);
}

TEST(Assembler, LabelOffsetQuery) {
  Assembler a;
  a.nop();
  a.nop();
  a.label("here");
  a.halt();
  auto off = a.label_offset("here");
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off.value(), 16u);
  EXPECT_FALSE(a.label_offset("nope").ok());
}

TEST(Assembler, DataDirectivesAndAlignment) {
  Assembler a;
  a.data_str("abc", true);
  a.align(8);
  EXPECT_EQ(a.size() % 8, 0u);
  a.data_u32(0x11223344);
  a.zeros(3);
  auto blob = a.assemble(0);
  ASSERT_TRUE(blob.ok());
  const Bytes& b = blob.value();
  EXPECT_EQ(b[0], 'a');
  EXPECT_EQ(b[3], 0u);  // NUL
  EXPECT_EQ(b[8], 0x44);
  EXPECT_EQ(b[11], 0x11);
}

TEST(Assembler, RelativeTargetsAreBaseIndependent) {
  Assembler a;
  a.jmp("end");
  a.nop();
  a.label("end");
  a.halt();
  auto b1 = a.assemble(0);
  auto b2 = a.assemble(0x7654000);
  ASSERT_TRUE(b1.ok() && b2.ok());
  EXPECT_EQ(b1.value(), b2.value());  // PIC when only relative refs used
}

TEST(ReplayLog, SerializeDeserializeRoundTrip) {
  ReplayLog log;
  ReplayEvent ev1;
  ev1.instr_index = 12345;
  ev1.kind = EventKind::kPacketIn;
  ev1.channel = 49162;
  ev1.flow = FlowTuple{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};
  ev1.payload = Bytes{1, 2, 3, 4, 5};
  log.append(ev1);
  ReplayEvent ev2;
  ev2.instr_index = 99999;
  ev2.kind = EventKind::kDeviceInput;
  ev2.channel = 1;
  ev2.payload = Bytes{'k', 'e', 'y'};
  log.append(ev2);

  Bytes wire = log.serialize();
  auto back = ReplayLog::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), log);
}

TEST(ReplayLog, RejectsCorruptInput) {
  ReplayLog log;
  ReplayEvent ev;
  ev.payload = Bytes(64, 9);
  log.append(ev);
  Bytes wire = log.serialize();
  EXPECT_FALSE(ReplayLog::deserialize(ByteSpan(wire.data(), 6)).ok());
  wire[0] ^= 0xff;  // magic
  EXPECT_FALSE(ReplayLog::deserialize(wire).ok());
}

TEST(ReplayLog, RejectsUnknownEventKinds) {
  // A log is outside input (analyze_malware reads one from disk); the
  // machine has no delivery for any kind but the two it records.
  ReplayLog log;
  ReplayEvent ev;
  ev.kind = EventKind::kDeviceInput;
  ev.payload = Bytes{'k'};
  log.append(ev);
  const Bytes wire = log.serialize();
  constexpr size_t kKindOffset = 12 + 8;  // header, then instr_index
  ASSERT_EQ(wire[kKindOffset], static_cast<u8>(EventKind::kDeviceInput));
  for (u8 kind : {u8{0}, u8{3}}) {
    Bytes bad = wire;
    bad[kKindOffset] = kind;
    auto back = ReplayLog::deserialize(bad);
    ASSERT_FALSE(back.ok()) << "kind " << int{kind};
    EXPECT_EQ(back.error().message, "replay: bad event kind");
  }
}

TEST(ReplayLog, RandomRoundTripProperty) {
  Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    ReplayLog log;
    u32 n = static_cast<u32>(rng.below(16));
    for (u32 i = 0; i < n; ++i) {
      ReplayEvent ev;
      ev.instr_index = rng.next_u64() >> 8;
      ev.kind = rng.chance(0.5) ? EventKind::kPacketIn
                                : EventKind::kDeviceInput;
      ev.channel = rng.next_u32();
      ev.flow.src_ip = rng.next_u32();
      ev.flow.src_port = static_cast<u16>(rng.next_u32());
      ev.flow.dst_ip = rng.next_u32();
      ev.flow.dst_port = static_cast<u16>(rng.next_u32());
      ev.payload = rng.bytes(rng.below(256));
      log.append(std::move(ev));
    }
    auto back = ReplayLog::deserialize(log.serialize());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), log);
  }
}

}  // namespace
}  // namespace faros::vm
