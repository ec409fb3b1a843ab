#include "vm/isa.h"

#include "common/strings.h"

namespace faros::vm {

const char* reg_name(u8 r) {
  static const char* names[] = {"r0", "r1", "r2",  "r3",  "r4",  "r5",
                                "r6", "r7", "r8",  "r9",  "r10", "r11",
                                "r12", "sp", "lr", "pc"};
  return r < kNumRegs ? names[r] : "r?";
}

void encode(const Instruction& insn, Bytes& out) {
  out.push_back(static_cast<u8>(insn.op));
  out.push_back(insn.rd);
  out.push_back(insn.rs1);
  out.push_back(insn.rs2);
  out.push_back(static_cast<u8>(insn.imm & 0xff));
  out.push_back(static_cast<u8>((insn.imm >> 8) & 0xff));
  out.push_back(static_cast<u8>((insn.imm >> 16) & 0xff));
  out.push_back(static_cast<u8>((insn.imm >> 24) & 0xff));
}

std::optional<Instruction> decode(ByteSpan bytes) {
  if (bytes.size() < kInsnSize) return std::nullopt;
  if (!opcode_valid(bytes[0])) return std::nullopt;
  Instruction insn;
  insn.op = static_cast<Opcode>(bytes[0]);
  insn.rd = bytes[1];
  insn.rs1 = bytes[2];
  insn.rs2 = bytes[3];
  insn.imm = static_cast<u32>(bytes[4]) | (static_cast<u32>(bytes[5]) << 8) |
             (static_cast<u32>(bytes[6]) << 16) |
             (static_cast<u32>(bytes[7]) << 24);
  if (insn.rd >= kNumRegs || insn.rs1 >= kNumRegs || insn.rs2 >= kNumRegs) {
    return std::nullopt;
  }
  return insn;
}

std::optional<u32> direct_target(const Instruction& insn, u32 va) {
  if (!is_direct_branch(insn.op)) return std::nullopt;
  return va + kInsnSize + insn.imm;  // u32 wrap matches the interpreter
}

std::string disassemble(const Instruction& insn) {
  const char* op = opcode_name(insn.op);
  const char* rd = reg_name(insn.rd);
  const char* rs1 = reg_name(insn.rs1);
  const char* rs2 = reg_name(insn.rs2);
  const i32 imm = insn.simm();
  switch (op_row(insn.op).fmt) {
    case Fmt::kNoOperands: break;
    case Fmt::kRdImm: return strf("%s %s, %d", op, rd, imm);
    case Fmt::kRdRs1: return strf("%s %s, %s", op, rd, rs1);
    case Fmt::kRdMem: return strf("%s %s, [%s%+d]", op, rd, rs1, imm);
    case Fmt::kMemRs2: return strf("%s [%s%+d], %s", op, rs1, imm, rs2);
    case Fmt::kRdRs1Rs2: return strf("%s %s, %s, %s", op, rd, rs1, rs2);
    case Fmt::kRdRs1Imm: return strf("%s %s, %s, %d", op, rd, rs1, imm);
    case Fmt::kRs1Rs2: return strf("%s %s, %s", op, rs1, rs2);
    case Fmt::kRs1Imm: return strf("%s %s, %d", op, rs1, imm);
    case Fmt::kRel: return strf("%s %+d", op, imm);
    case Fmt::kRs1Only: return strf("%s %s", op, rs1);
    case Fmt::kRdOnly: return strf("%s %s", op, rd);
  }
  return op;
}

}  // namespace faros::vm
