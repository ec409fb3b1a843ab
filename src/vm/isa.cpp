#include "vm/isa.h"

#include "common/strings.h"

namespace faros::vm {

namespace {

struct OpInfo {
  const char* name;
  bool valid;
};

OpInfo op_info(u8 op) {
  switch (static_cast<Opcode>(op)) {
    case Opcode::kNop: return {"nop", true};
    case Opcode::kHalt: return {"halt", true};
    case Opcode::kMovi: return {"movi", true};
    case Opcode::kMov: return {"mov", true};
    case Opcode::kAddPc: return {"addpc", true};
    case Opcode::kLd8: return {"ld8", true};
    case Opcode::kLd16: return {"ld16", true};
    case Opcode::kLd32: return {"ld32", true};
    case Opcode::kSt8: return {"st8", true};
    case Opcode::kSt16: return {"st16", true};
    case Opcode::kSt32: return {"st32", true};
    case Opcode::kAdd: return {"add", true};
    case Opcode::kSub: return {"sub", true};
    case Opcode::kMul: return {"mul", true};
    case Opcode::kDivu: return {"divu", true};
    case Opcode::kAnd: return {"and", true};
    case Opcode::kOr: return {"or", true};
    case Opcode::kXor: return {"xor", true};
    case Opcode::kShl: return {"shl", true};
    case Opcode::kShr: return {"shr", true};
    case Opcode::kAddi: return {"addi", true};
    case Opcode::kSubi: return {"subi", true};
    case Opcode::kMuli: return {"muli", true};
    case Opcode::kAndi: return {"andi", true};
    case Opcode::kOri: return {"ori", true};
    case Opcode::kXori: return {"xori", true};
    case Opcode::kShli: return {"shli", true};
    case Opcode::kShri: return {"shri", true};
    case Opcode::kCmp: return {"cmp", true};
    case Opcode::kCmpi: return {"cmpi", true};
    case Opcode::kJmp: return {"jmp", true};
    case Opcode::kJr: return {"jr", true};
    case Opcode::kBeq: return {"beq", true};
    case Opcode::kBne: return {"bne", true};
    case Opcode::kBlt: return {"blt", true};
    case Opcode::kBge: return {"bge", true};
    case Opcode::kBltu: return {"bltu", true};
    case Opcode::kBgeu: return {"bgeu", true};
    case Opcode::kCall: return {"call", true};
    case Opcode::kCallr: return {"callr", true};
    case Opcode::kRet: return {"ret", true};
    case Opcode::kPush: return {"push", true};
    case Opcode::kPop: return {"pop", true};
    case Opcode::kSyscall: return {"syscall", true};
    case Opcode::kBrk: return {"brk", true};
  }
  return {"???", false};
}

}  // namespace

bool opcode_valid(u8 op) { return op_info(op).valid; }

const char* opcode_name(Opcode op) { return op_info(static_cast<u8>(op)).name; }

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

bool is_load(Opcode op) {
  return op == Opcode::kLd8 || op == Opcode::kLd16 || op == Opcode::kLd32 ||
         op == Opcode::kPop;
}

bool is_store(Opcode op) {
  return op == Opcode::kSt8 || op == Opcode::kSt16 || op == Opcode::kSt32 ||
         op == Opcode::kPush;
}

unsigned mem_access_size(Opcode op) {
  switch (op) {
    case Opcode::kLd8:
    case Opcode::kSt8: return 1;
    case Opcode::kLd16:
    case Opcode::kSt16: return 2;
    case Opcode::kLd32:
    case Opcode::kSt32:
    case Opcode::kPush:
    case Opcode::kPop: return 4;
    default: return 0;
  }
}

bool taint_inert(Opcode op) {
  switch (op) {
    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32:
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32:
    case Opcode::kPush:
    case Opcode::kPop:      // shadow-memory traffic and memory faults
    case Opcode::kSyscall:  // kernel transition + syscall-arg trigger
    case Opcode::kHalt:     // process lifecycle
    case Opcode::kBrk:      // trap
    case Opcode::kDivu:     // divide-by-zero traps mid-block
      return false;
    default: return true;
  }
}

RegFootprint taint_footprint(const Instruction& insn) {
  auto bit = [](u8 r) { return static_cast<u16>(1u << (r & 15)); };
  const u16 rd = bit(insn.rd);
  const u16 rs1 = bit(insn.rs1);
  const u16 rs2 = bit(insn.rs2);
  switch (insn.op) {
    case Opcode::kMovi:
    case Opcode::kAddPc: return {0, rd};
    case Opcode::kMov: return {rs1, rd};
    case Opcode::kXor:
    case Opcode::kSub:
      if (insn.rs1 == insn.rs2) return {0, rd};  // zero idiom: delete rule
      return {static_cast<u16>(rs1 | rs2), rd};
    case Opcode::kAdd:
    case Opcode::kMul:
    case Opcode::kDivu:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kShl:
    case Opcode::kShr: return {static_cast<u16>(rs1 | rs2), rd};
    case Opcode::kAddi:
    case Opcode::kSubi:
    case Opcode::kMuli:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri: return {rs1, rd};
    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32: return {rs1, rd};
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32: return {static_cast<u16>(rs1 | rs2), 0};
    case Opcode::kPush: return {static_cast<u16>(rs1 | bit(SP)), 0};
    case Opcode::kPop: return {bit(SP), rd};
    case Opcode::kCall:
    case Opcode::kCallr: return {0, bit(LR)};
    case Opcode::kSyscall: return {0, bit(R0)};
    default: return {};
  }
}

bool is_cond_branch(Opcode op) {
  switch (op) {
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu: return true;
    default: return false;
  }
}

bool is_direct_branch(Opcode op) {
  return op == Opcode::kJmp || op == Opcode::kCall || is_cond_branch(op);
}

bool is_indirect_branch(Opcode op) {
  return op == Opcode::kJr || op == Opcode::kCallr;
}

bool is_call(Opcode op) {
  return op == Opcode::kCall || op == Opcode::kCallr;
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
  switch (insn.op) {
    case Opcode::kNop:
    case Opcode::kHalt:
    case Opcode::kRet:
    case Opcode::kSyscall:
    case Opcode::kBrk: return op;
    case Opcode::kMovi: return strf("%s %s, %d", op, rd, insn.simm());
    case Opcode::kMov: return strf("%s %s, %s", op, rd, rs1);
    case Opcode::kAddPc: return strf("%s %s, %d", op, rd, insn.simm());
    case Opcode::kLd8:
    case Opcode::kLd16:
    case Opcode::kLd32:
      return strf("%s %s, [%s%+d]", op, rd, rs1, insn.simm());
    case Opcode::kSt8:
    case Opcode::kSt16:
    case Opcode::kSt32:
      return strf("%s [%s%+d], %s", op, rs1, insn.simm(), rs2);
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kMul:
    case Opcode::kDivu:
    case Opcode::kAnd:
    case Opcode::kOr:
    case Opcode::kXor:
    case Opcode::kShl:
    case Opcode::kShr:
      return strf("%s %s, %s, %s", op, rd, rs1, rs2);
    case Opcode::kAddi:
    case Opcode::kSubi:
    case Opcode::kMuli:
    case Opcode::kAndi:
    case Opcode::kOri:
    case Opcode::kXori:
    case Opcode::kShli:
    case Opcode::kShri:
      return strf("%s %s, %s, %d", op, rd, rs1, insn.simm());
    case Opcode::kCmp: return strf("%s %s, %s", op, rs1, rs2);
    case Opcode::kCmpi: return strf("%s %s, %d", op, rs1, insn.simm());
    case Opcode::kJmp:
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge:
    case Opcode::kBltu:
    case Opcode::kBgeu:
    case Opcode::kCall: return strf("%s %+d", op, insn.simm());
    case Opcode::kJr:
    case Opcode::kCallr: return strf("%s %s", op, rs1);
    case Opcode::kPush: return strf("%s %s", op, rs1);
    case Opcode::kPop: return strf("%s %s", op, rd);
  }
  return op;
}

}  // namespace faros::vm
