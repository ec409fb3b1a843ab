// FV32 ISA: encoding, decoding, classification and disassembly.
#include <gtest/gtest.h>

#include "vm/isa.h"

namespace faros::vm {
namespace {

const Opcode kAllOpcodes[] = {
    Opcode::kNop,   Opcode::kHalt, Opcode::kMovi, Opcode::kMov,
    Opcode::kAddPc, Opcode::kLd8,  Opcode::kLd16, Opcode::kLd32,
    Opcode::kSt8,   Opcode::kSt16, Opcode::kSt32, Opcode::kAdd,
    Opcode::kSub,   Opcode::kMul,  Opcode::kDivu, Opcode::kAnd,
    Opcode::kOr,    Opcode::kXor,  Opcode::kShl,  Opcode::kShr,
    Opcode::kAddi,  Opcode::kSubi, Opcode::kMuli, Opcode::kAndi,
    Opcode::kOri,   Opcode::kXori, Opcode::kShli, Opcode::kShri,
    Opcode::kCmp,   Opcode::kCmpi, Opcode::kJmp,  Opcode::kJr,
    Opcode::kBeq,   Opcode::kBne,  Opcode::kBlt,  Opcode::kBge,
    Opcode::kBltu,  Opcode::kBgeu, Opcode::kCall, Opcode::kCallr,
    Opcode::kRet,   Opcode::kPush, Opcode::kPop,  Opcode::kSyscall,
    Opcode::kBrk,
};

class IsaRoundTrip : public ::testing::TestWithParam<Opcode> {};

TEST_P(IsaRoundTrip, EncodeDecodeIsIdentity) {
  Instruction in;
  in.op = GetParam();
  in.rd = 3;
  in.rs1 = 7;
  in.rs2 = 12;
  in.imm = 0xdeadbeef;
  Bytes bytes;
  encode(in, bytes);
  ASSERT_EQ(bytes.size(), kInsnSize);
  auto out = decode(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST_P(IsaRoundTrip, OpcodeIsValidAndNamed) {
  EXPECT_TRUE(opcode_valid(static_cast<u8>(GetParam())));
  EXPECT_STRNE(opcode_name(GetParam()), "???");
}

TEST_P(IsaRoundTrip, DisassemblyIsNonEmptyAndStartsWithMnemonic) {
  Instruction in;
  in.op = GetParam();
  in.rd = 1;
  in.rs1 = 2;
  in.rs2 = 3;
  in.imm = 16;
  std::string text = disassemble(in);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.rfind(opcode_name(GetParam()), 0), 0u) << text;
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, IsaRoundTrip, ::testing::ValuesIn(kAllOpcodes),
    [](const ::testing::TestParamInfo<Opcode>& info) {
      return std::string(opcode_name(info.param));
    });

TEST(IsaDecode, RejectsInvalidOpcodes) {
  for (u32 op = 0; op < 256; ++op) {
    Bytes bytes{static_cast<u8>(op), 0, 0, 0, 0, 0, 0, 0};
    auto decoded = decode(bytes);
    EXPECT_EQ(decoded.has_value(), opcode_valid(static_cast<u8>(op)))
        << "opcode " << op;
  }
}

TEST(IsaDecode, RejectsShortSpans) {
  Bytes bytes{0, 0, 0, 0, 0, 0, 0};  // 7 bytes
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(IsaDecode, RejectsOutOfRangeRegisters) {
  Bytes bytes{static_cast<u8>(Opcode::kMov), 16, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(decode(bytes).has_value());
  bytes[1] = 0;
  bytes[2] = 200;
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(IsaDecode, ImmediateIsLittleEndian) {
  Bytes bytes{static_cast<u8>(Opcode::kMovi), 0, 0, 0, 0x78, 0x56, 0x34,
              0x12};
  auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->imm, 0x12345678u);
}

TEST(IsaClassify, LoadsAndStores) {
  EXPECT_TRUE(is_load(Opcode::kLd8));
  EXPECT_TRUE(is_load(Opcode::kLd16));
  EXPECT_TRUE(is_load(Opcode::kLd32));
  EXPECT_TRUE(is_load(Opcode::kPop));
  EXPECT_FALSE(is_load(Opcode::kSt8));
  EXPECT_TRUE(is_store(Opcode::kSt8));
  EXPECT_TRUE(is_store(Opcode::kSt16));
  EXPECT_TRUE(is_store(Opcode::kSt32));
  EXPECT_TRUE(is_store(Opcode::kPush));
  EXPECT_FALSE(is_store(Opcode::kLd32));
}

TEST(IsaClassify, MemAccessSizes) {
  EXPECT_EQ(mem_access_size(Opcode::kLd8), 1u);
  EXPECT_EQ(mem_access_size(Opcode::kLd16), 2u);
  EXPECT_EQ(mem_access_size(Opcode::kLd32), 4u);
  EXPECT_EQ(mem_access_size(Opcode::kSt8), 1u);
  EXPECT_EQ(mem_access_size(Opcode::kSt16), 2u);
  EXPECT_EQ(mem_access_size(Opcode::kSt32), 4u);
  EXPECT_EQ(mem_access_size(Opcode::kPush), 4u);
  EXPECT_EQ(mem_access_size(Opcode::kPop), 4u);
  EXPECT_EQ(mem_access_size(Opcode::kAdd), 0u);
}

TEST(IsaClassify, BlockEnders) {
  EXPECT_TRUE(ends_block(Opcode::kJmp));
  EXPECT_TRUE(ends_block(Opcode::kBeq));
  EXPECT_TRUE(ends_block(Opcode::kCall));
  EXPECT_TRUE(ends_block(Opcode::kRet));
  EXPECT_TRUE(ends_block(Opcode::kSyscall));
  EXPECT_TRUE(ends_block(Opcode::kHalt));
  EXPECT_FALSE(ends_block(Opcode::kAdd));
  EXPECT_FALSE(ends_block(Opcode::kLd32));
  EXPECT_FALSE(ends_block(Opcode::kCmp));
}

TEST(IsaClassify, TaintFootprintFollowsTableI) {
  auto fp = [](Opcode op, u8 rd, u8 rs1, u8 rs2) {
    return taint_footprint(Instruction{op, rd, rs1, rs2, 0});
  };
  auto bits = [](std::initializer_list<u8> regs) {
    u16 m = 0;
    for (u8 r : regs) m |= static_cast<u16>(1u << r);
    return m;
  };
  auto expect = [](RegFootprint f, u16 reads, u16 writes, const char* what) {
    EXPECT_EQ(f.reads, reads) << what;
    EXPECT_EQ(f.writes, writes) << what;
  };
  expect(fp(Opcode::kMovi, 3, 7, 9), 0, bits({3}), "movi");
  expect(fp(Opcode::kAddPc, 3, 7, 9), 0, bits({3}), "addpc");
  expect(fp(Opcode::kMov, 3, 7, 9), bits({7}), bits({3}), "mov");
  expect(fp(Opcode::kAdd, 3, 7, 9), bits({7, 9}), bits({3}), "add");
  expect(fp(Opcode::kDivu, 3, 7, 9), bits({7, 9}), bits({3}), "divu");
  expect(fp(Opcode::kXor, 3, 7, 9), bits({7, 9}), bits({3}), "xor");
  expect(fp(Opcode::kXor, 3, 7, 7), 0, bits({3}), "xor zero idiom");
  expect(fp(Opcode::kSub, 3, 7, 7), 0, bits({3}), "sub zero idiom");
  expect(fp(Opcode::kAnd, 3, 7, 7), bits({7}), bits({3}), "and is no idiom");
  expect(fp(Opcode::kShli, 3, 7, 9), bits({7}), bits({3}), "shli");
  expect(fp(Opcode::kCmp, 3, 7, 9), 0, 0, "cmp");
  expect(fp(Opcode::kJr, 3, 7, 9), 0, 0, "jr");
  expect(fp(Opcode::kRet, 3, 7, 9), 0, 0, "ret");
  expect(fp(Opcode::kCallr, 3, 7, 9), 0, bits({LR}), "callr");
  expect(fp(Opcode::kCall, 3, 7, 9), 0, bits({LR}), "call");
  expect(fp(Opcode::kSyscall, 3, 7, 9), 0, bits({R0}), "syscall");
  expect(fp(Opcode::kLd32, 3, 7, 9), bits({7}), bits({3}), "ld32");
  expect(fp(Opcode::kSt8, 3, 7, 9), bits({7, 9}), 0, "st8");
  expect(fp(Opcode::kPush, 3, 7, 9), bits({7, SP}), 0, "push");
  expect(fp(Opcode::kPop, 3, 7, 9), bits({SP}), bits({3}), "pop");
  expect(fp(Opcode::kHalt, 3, 7, 9), 0, 0, "halt");
}

TEST(IsaRegs, Names) {
  EXPECT_STREQ(reg_name(0), "r0");
  EXPECT_STREQ(reg_name(12), "r12");
  EXPECT_STREQ(reg_name(SP), "sp");
  EXPECT_STREQ(reg_name(LR), "lr");
  EXPECT_STREQ(reg_name(PC), "pc");
  EXPECT_STREQ(reg_name(99), "r?");
}

TEST(IsaDisasm, MemoryOperandsRenderWithOffset) {
  Instruction ld{Opcode::kLd32, R1, R2, 0, static_cast<u32>(-8)};
  EXPECT_EQ(disassemble(ld), "ld32 r1, [r2-8]");
  Instruction st{Opcode::kSt8, 0, R3, R4, 16};
  EXPECT_EQ(disassemble(st), "st8 [r3+16], r4");
}

}  // namespace
}  // namespace faros::vm
