// FV32: the guest instruction set of the FAROS reproduction's whole-system
// emulator (the stand-in for QEMU's x86 guest).
//
// Design goals, in order: (1) byte-addressable memory with 8/16/32-bit
// loads/stores so byte-level tainting is meaningful; (2) a fixed, trivially
// decodable encoding so the DIFT engine can reason about every executed
// instruction; (3) position-independent control flow (relative branches and
// ADDPC) so injected payloads can run at arbitrary addresses, as real
// shellcode does.
//
// Encoding: every instruction is 8 bytes, little-endian:
//   byte 0: opcode        byte 1: rd        byte 2: rs1       byte 3: rs2
//   bytes 4..7: imm32 (signed where the semantics call for it)
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/types.h"

namespace faros::vm {

inline constexpr u32 kInsnSize = 8;
inline constexpr u32 kNumRegs = 16;

/// Register numbers. R13..R15 have conventional roles.
enum Reg : u8 {
  R0 = 0, R1, R2, R3, R4, R5, R6, R7, R8, R9, R10, R11, R12,
  SP = 13,  // stack pointer
  LR = 14,  // link register
  PC = 15,  // program counter (not directly encodable as an operand)
};

enum class Opcode : u8 {
  // --- misc ---
  kNop = 0x00,
  kHalt = 0x01,      // voluntary termination of the current process
  kMovi = 0x02,      // rd = imm
  kMov = 0x03,       // rd = rs1
  kAddPc = 0x04,     // rd = next_pc + imm  (PIC data addressing, like ADR)

  // --- loads/stores: address = rs1 + imm (signed) ---
  kLd8 = 0x10,       // rd = zext(mem8[ea])
  kLd16 = 0x11,
  kLd32 = 0x12,
  kSt8 = 0x14,       // mem8[ea] = low byte of rs2
  kSt16 = 0x15,
  kSt32 = 0x16,

  // --- three-register ALU: rd = rs1 op rs2 ---
  kAdd = 0x20,
  kSub = 0x21,
  kMul = 0x22,
  kDivu = 0x23,      // unsigned divide; divide-by-zero traps
  kAnd = 0x24,
  kOr = 0x25,
  kXor = 0x26,
  kShl = 0x27,
  kShr = 0x28,       // logical right shift

  // --- register-immediate ALU: rd = rs1 op imm ---
  kAddi = 0x30,
  kSubi = 0x31,
  kMuli = 0x32,
  kAndi = 0x34,
  kOri = 0x35,
  kXori = 0x36,
  kShli = 0x37,
  kShri = 0x38,

  // --- compare: sets flags consumed by conditional branches ---
  kCmp = 0x40,       // flags = compare(rs1, rs2)
  kCmpi = 0x41,      // flags = compare(rs1, imm)

  // --- control flow. Branch targets are relative to the *next* insn ---
  kJmp = 0x50,       // pc = next_pc + imm
  kJr = 0x51,        // pc = rs1 (absolute indirect)
  kBeq = 0x52,
  kBne = 0x53,
  kBlt = 0x54,       // signed <
  kBge = 0x55,       // signed >=
  kBltu = 0x56,      // unsigned <
  kBgeu = 0x57,      // unsigned >=
  kCall = 0x58,      // lr = next_pc; pc = next_pc + imm
  kCallr = 0x59,     // lr = next_pc; pc = rs1
  kRet = 0x5a,       // pc = lr

  // --- stack ---
  kPush = 0x60,      // sp -= 4; mem32[sp] = rs1
  kPop = 0x61,       // rd = mem32[sp]; sp += 4

  // --- system ---
  kSyscall = 0x70,   // service number in r0, args in r1..r4, result in r0
  kBrk = 0x71,       // debug trap (delivers a trap to the kernel)
};

/// Decoded instruction.
struct Instruction {
  Opcode op = Opcode::kNop;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  u32 imm = 0;

  i32 simm() const { return static_cast<i32>(imm); }
  bool operator==(const Instruction&) const = default;
};

// ---------------------------------------------------------------------------
// The opcode table: every per-opcode fact the decoder, the disassembler,
// the block cache, the static analyzer and the DIFT engine use is one
// constexpr row, including the opcode's rule from the paper's Table I and
// the operand roles that rule reads and writes. The engine applies the rule
// (core::FarosEngine::on_insn_retired) and block elision predicts it
// (taint_footprint) from the same row, so the two cannot disagree. The
// interpreter's semantics (vm/cpu.cpp) are written out separately.

/// Operand format of the disassembly.
enum class Fmt : u8 {
  kNoOperands,  // halt
  kRdImm,       // movi r1, 5
  kRdRs1,       // mov r1, r2
  kRdMem,       // ld8 r1, [r2+16]
  kMemRs2,      // st8 [r2+16], r3
  kRdRs1Rs2,    // add r1, r2, r3
  kRdRs1Imm,    // addi r1, r2, 5
  kRs1Rs2,      // cmp r1, r2
  kRs1Imm,      // cmpi r1, 5
  kRel,         // jmp +16
  kRs1Only,     // jr r1
  kRdOnly,      // pop r1
};

/// Direction of the instruction's memory access.
enum class Mem : u8 { kNoMem, kRead, kWrite };

/// Where control goes once the instruction retires.
enum class Ctl : u8 {
  kNext,      // the next instruction
  kJump,      // next_pc + imm
  kCond,      // next_pc + imm when the flags say so, else the next one
  kIndirect,  // rs1
  kCall,      // lr = next_pc, then next_pc + imm
  kCallInd,   // lr = next_pc, then rs1
  kRet,       // lr
  kSys,       // the kernel, which resumes the process at next_pc
  kHalt,      // none: the process ends
  kBrk,       // none: a debug trap
};

/// Table-I propagation rule (PAPER.md), over the row's operand roles.
enum class Rule : u8 {
  kNoFlow,     // compares and branches: control dependencies do not flow
  kDelete,     // dst gets a constant: its provenance is deleted
  kCopy,       // dst byte i = src byte i
  kUnion,      // every dst byte = the union of every byte of src and src2
  kUnionZero,  // kUnion, or kDelete when src and src2 are one register
               // (`xor rd, rs, rs`: the zero idiom)
  kLoad,       // dst byte i = memory byte i
  kStore,      // memory byte i = src byte i
  kSyscall,    // the kernel writes dst (r0); r1..r4 feed the syscall-arg
               // trigger, not a register
};

/// The register an operand role names.
enum class Role : u8 { kNoReg, kRd, kRs1, kRs2, kSp, kLr, kR0 };

struct OpRow {
  Opcode op;
  const char* name;  // mnemonic
  Fmt fmt;
  Mem mem;
  u8 mem_size;  // bytes accessed; 0 without a memory access
  Ctl ctl;
  bool traps;   // can trap on its register operands (divu by zero)
  Rule rule;
  Role dst = Role::kNoReg;   // the register whose provenance it replaces
  Role src = Role::kNoReg;   // data source
  Role src2 = Role::kNoReg;  // second data source
  Role base = Role::kNoReg;  // address base of a memory access

  /// The block cache's register-only fast body can run it: no memory
  /// access and no halt or brk. A kDivu may trap in there, stopping the
  /// body, and a kSyscall ends the block (vm/btcache.h).
  constexpr bool elidable() const {
    return mem == Mem::kNoMem && ctl != Ctl::kHalt && ctl != Ctl::kBrk;
  }
};

/// One row per defined opcode, then the row of every undefined byte.
inline constexpr auto kOpTable = [] {
  using enum Fmt;
  using enum Mem;
  using enum Ctl;
  using enum Rule;
  using enum Role;
  using O = Opcode;
  constexpr bool T = true;
  constexpr bool F = false;
  return std::to_array<OpRow>({
      // {opcode, name, format, mem, size, control, traps,
      //  rule, dst, src, src2, base}; roles left out are kNoReg.
      {O::kNop, "nop", kNoOperands, kNoMem, 0, kNext, F, kNoFlow},
      {O::kHalt, "halt", kNoOperands, kNoMem, 0, kHalt, F, kNoFlow},
      {O::kMovi, "movi", kRdImm, kNoMem, 0, kNext, F, kDelete, kRd},
      {O::kMov, "mov", kRdRs1, kNoMem, 0, kNext, F, kCopy, kRd, kRs1},
      {O::kAddPc, "addpc", kRdImm, kNoMem, 0, kNext, F, kDelete, kRd},
      {O::kLd8, "ld8", kRdMem, kRead, 1, kNext, F,
       kLoad, kRd, kNoReg, kNoReg, kRs1},
      {O::kLd16, "ld16", kRdMem, kRead, 2, kNext, F,
       kLoad, kRd, kNoReg, kNoReg, kRs1},
      {O::kLd32, "ld32", kRdMem, kRead, 4, kNext, F,
       kLoad, kRd, kNoReg, kNoReg, kRs1},
      {O::kSt8, "st8", kMemRs2, kWrite, 1, kNext, F,
       kStore, kNoReg, kRs2, kNoReg, kRs1},
      {O::kSt16, "st16", kMemRs2, kWrite, 2, kNext, F,
       kStore, kNoReg, kRs2, kNoReg, kRs1},
      {O::kSt32, "st32", kMemRs2, kWrite, 4, kNext, F,
       kStore, kNoReg, kRs2, kNoReg, kRs1},
      {O::kAdd, "add", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kSub, "sub", kRdRs1Rs2, kNoMem, 0, kNext, F,
       kUnionZero, kRd, kRs1, kRs2},
      {O::kMul, "mul", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kDivu, "divu", kRdRs1Rs2, kNoMem, 0, kNext, T,
       kUnion, kRd, kRs1, kRs2},
      {O::kAnd, "and", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kOr, "or", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kXor, "xor", kRdRs1Rs2, kNoMem, 0, kNext, F,
       kUnionZero, kRd, kRs1, kRs2},
      {O::kShl, "shl", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kShr, "shr", kRdRs1Rs2, kNoMem, 0, kNext, F, kUnion, kRd, kRs1, kRs2},
      {O::kAddi, "addi", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kSubi, "subi", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kMuli, "muli", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kAndi, "andi", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kOri, "ori", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kXori, "xori", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kShli, "shli", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kShri, "shri", kRdRs1Imm, kNoMem, 0, kNext, F, kUnion, kRd, kRs1},
      {O::kCmp, "cmp", kRs1Rs2, kNoMem, 0, kNext, F, kNoFlow},
      {O::kCmpi, "cmpi", kRs1Imm, kNoMem, 0, kNext, F, kNoFlow},
      {O::kJmp, "jmp", kRel, kNoMem, 0, kJump, F, kNoFlow},
      {O::kJr, "jr", kRs1Only, kNoMem, 0, kIndirect, F, kNoFlow},
      {O::kBeq, "beq", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kBne, "bne", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kBlt, "blt", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kBge, "bge", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kBltu, "bltu", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kBgeu, "bgeu", kRel, kNoMem, 0, kCond, F, kNoFlow},
      {O::kCall, "call", kRel, kNoMem, 0, kCall, F, kDelete, kLr},
      {O::kCallr, "callr", kRs1Only, kNoMem, 0, kCallInd, F, kDelete, kLr},
      {O::kRet, "ret", kNoOperands, kNoMem, 0, kRet, F, kNoFlow},
      {O::kPush, "push", kRs1Only, kWrite, 4, kNext, F,
       kStore, kNoReg, kRs1, kNoReg, kSp},
      {O::kPop, "pop", kRdOnly, kRead, 4, kNext, F,
       kLoad, kRd, kNoReg, kNoReg, kSp},
      {O::kSyscall, "syscall", kNoOperands, kNoMem, 0, kSys, F, kSyscall, kR0},
      {O::kBrk, "brk", kNoOperands, kNoMem, 0, kBrk, F, kNoFlow},
      // Every undefined byte: decode rejects it.
      {O::kNop, "???", kNoOperands, kNoMem, 0, kNext, F, kNoFlow},
  });
}();

inline constexpr u8 kUndefinedRow = kOpTable.size() - 1;

/// kOpTable's row of each opcode byte, built from the rows.
inline constexpr auto kOpIndex = [] {
  std::array<u8, 256> index{};
  index.fill(kUndefinedRow);
  for (u8 i = 0; i < kUndefinedRow; ++i) {
    index[static_cast<u8>(kOpTable[i].op)] = i;
  }
  return index;
}();

static_assert(
    [] {
      for (u8 i = 0; i < kUndefinedRow; ++i) {
        const OpRow& r = kOpTable[i];
        if (kOpIndex[static_cast<u8>(r.op)] != i) return false;  // 2 rows
        if ((r.mem == Mem::kNoMem) != (r.mem_size == 0)) return false;
        if ((r.rule == Rule::kLoad) != (r.mem == Mem::kRead)) return false;
        if ((r.rule == Rule::kStore) != (r.mem == Mem::kWrite)) return false;
      }
      return true;
    }(),
    "each opcode has one row, and only loads and stores touch memory");

inline const OpRow& op_row(Opcode op) {
  return kOpTable[kOpIndex[static_cast<u8>(op)]];
}

/// The register an operand role of `insn` names (0 for kNoReg, which
/// callers rule out first).
inline u8 operand(Role role, const Instruction& insn) {
  switch (role) {
    case Role::kRd: return insn.rd;
    case Role::kRs1: return insn.rs1;
    case Role::kRs2: return insn.rs2;
    case Role::kSp: return SP;
    case Role::kLr: return LR;
    case Role::kR0: return R0;
    case Role::kNoReg: break;
  }
  return 0;
}

/// The zero idiom: a kUnionZero row whose two sources are one register.
inline bool zero_idiom(const OpRow& r, const Instruction& insn) {
  return r.rule == Rule::kUnionZero &&
         operand(r.src, insn) == operand(r.src2, insn);
}

/// True if `op` is a defined FV32 opcode.
inline bool opcode_valid(u8 op) { return kOpIndex[op] != kUndefinedRow; }

/// Mnemonic for an opcode ("ld8", "addi", ...).
inline const char* opcode_name(Opcode op) { return op_row(op).name; }

/// Register name ("r4", "sp", "lr", "pc").
const char* reg_name(u8 r);

/// Encode to the fixed 8-byte form (appends to `out`).
void encode(const Instruction& insn, Bytes& out);

/// Decode 8 bytes. Returns nullopt for an undefined opcode or short span.
std::optional<Instruction> decode(ByteSpan bytes);

/// Loads (ld8/16/32, pop) and stores (st8/16/32, push).
inline bool is_load(Opcode op) { return op_row(op).mem == Mem::kRead; }
inline bool is_store(Opcode op) { return op_row(op).mem == Mem::kWrite; }
/// Size in bytes of the memory access for load/store/push/pop opcodes.
inline unsigned mem_access_size(Opcode op) { return op_row(op).mem_size; }
/// True for any opcode that ends a basic block (branches, calls, ret,
/// syscall, halt, brk).
inline bool ends_block(Opcode op) { return op_row(op).ctl != Ctl::kNext; }

/// True when `op` touches no shadow memory, cannot trap and cannot leave
/// user mode: its only taint effect is on registers, which
/// taint_footprint() describes. The block cache's elidable rows
/// (OpRow::elidable) are these, kDivu and kSyscall; the static analyzer
/// (src/sa) exports this classification per basic block.
inline bool taint_inert(Opcode op) {
  const OpRow& r = op_row(op);
  return r.elidable() && !r.traps && r.ctl != Ctl::kSys;
}

/// Register footprint of one instruction under its row's Table-I rule, as
/// bit masks (bit r = register r). `reads`: registers whose provenance
/// flows into what the instruction writes (src, src2 and base, so loads
/// and stores count their address register, an engine option). `writes`:
/// registers whose provenance the instruction replaces (dst). The zero
/// idiom reads nothing.
struct RegFootprint {
  u16 reads = 0;
  u16 writes = 0;
};
inline RegFootprint taint_footprint(const Instruction& insn) {
  const OpRow& r = op_row(insn.op);
  auto bit = [&](Role role) {
    return role == Role::kNoReg ? 0 : 1u << operand(role, insn);
  };
  if (zero_idiom(r, insn)) return {0, static_cast<u16>(bit(r.dst))};
  return {static_cast<u16>(bit(r.src) | bit(r.src2) | bit(r.base)),
          static_cast<u16>(bit(r.dst))};
}

// Control-flow classification for static analysis (src/sa). The static CFG
// builder must agree with the interpreter about what transfers control and
// where.

/// beq/bne/blt/bge/bltu/bgeu — falls through when the condition fails.
inline bool is_cond_branch(Opcode op) { return op_row(op).ctl == Ctl::kCond; }
/// jmp/call and the conditional branches — target encoded in imm.
inline bool is_direct_branch(Opcode op) {
  const Ctl c = op_row(op).ctl;
  return c == Ctl::kJump || c == Ctl::kCall || c == Ctl::kCond;
}
/// jr/callr — target in a register, invisible to a linear decoder.
inline bool is_indirect_branch(Opcode op) {
  const Ctl c = op_row(op).ctl;
  return c == Ctl::kIndirect || c == Ctl::kCallInd;
}
/// call/callr — pushes a return address into lr.
inline bool is_call(Opcode op) {
  const Ctl c = op_row(op).ctl;
  return c == Ctl::kCall || c == Ctl::kCallInd;
}
/// Absolute target of a direct branch at virtual address `va` (targets are
/// encoded relative to the *next* instruction). nullopt for non-direct ops.
std::optional<u32> direct_target(const Instruction& insn, u32 va);

/// Human-readable disassembly, e.g. "ld8 r1, [r2+16]".
std::string disassemble(const Instruction& insn);

}  // namespace faros::vm
