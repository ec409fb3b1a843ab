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
  kMovi = 0x02,      // rd = imm                       (taint: delete rd)
  kMov = 0x03,       // rd = rs1                       (taint: copy)
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
  kXor = 0x26,       // xor rd, rs, rs zeroes rd       (taint: delete)
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

/// True if `op` is a defined FV32 opcode.
bool opcode_valid(u8 op);

/// Mnemonic for an opcode ("ld8", "addi", ...).
const char* opcode_name(Opcode op);

/// Register name ("r4", "sp", "lr", "pc").
const char* reg_name(u8 r);

/// Encode to the fixed 8-byte form (appends to `out`).
void encode(const Instruction& insn, Bytes& out);

/// Decode 8 bytes. Returns nullopt for an undefined opcode or short span.
std::optional<Instruction> decode(ByteSpan bytes);

/// Instruction classification used by the interpreter and the DIFT engine.
bool is_load(Opcode op);
bool is_store(Opcode op);
/// Size in bytes of the memory access for load/store/push/pop opcodes.
unsigned mem_access_size(Opcode op);
/// True for any opcode that ends a basic block (branches, calls, ret,
/// syscall, halt, brk).
bool ends_block(Opcode op);

/// True when `op` touches no shadow memory, cannot trap and cannot leave
/// user mode: no loads/stores/push/pop (shadow-memory traffic + memory
/// faults), no syscall/halt/brk (kernel transitions), no divu (div-by-zero
/// trap). Its only taint effect is on registers, which taint_footprint()
/// describes. The block-translation cache (src/vm/btcache.h) offers blocks
/// made of these opcodes, optionally ending in one kSyscall, for an
/// uninstrumented fast body that the DIFT engine approves per dispatch; the
/// static analyzer (src/sa) exports the same classification per basic
/// block, so it must live beside the decoder.
bool taint_inert(Opcode op);

/// Register footprint of one instruction under the paper's Table-I
/// register rules, as bit masks (bit r = register r). `reads`: registers
/// whose provenance flows into a register the instruction overwrites.
/// `writes`: registers whose provenance the instruction replaces. Compare
/// operands and branch targets read nothing (control dependencies are not
/// propagated), nor does the xor/sub zero idiom (`xor rd, rs, rs`), and
/// kSyscall writes only r0 (the kernel's result; its r1..r4 arguments feed
/// the syscall-arg trigger, not a register). Loads and stores count their
/// address and data registers as reads (address dependencies are an engine
/// option), and push/pop leave sp's provenance alone.
struct RegFootprint {
  u16 reads = 0;
  u16 writes = 0;
};
RegFootprint taint_footprint(const Instruction& insn);

// Control-flow classification for static analysis (src/sa). The static CFG
// builder must agree with the interpreter about what transfers control and
// where, so these live beside the decoder rather than in the analyzer.

/// beq/bne/blt/bge/bltu/bgeu — falls through when the condition fails.
bool is_cond_branch(Opcode op);
/// jmp/call and the conditional branches — target encoded in imm.
bool is_direct_branch(Opcode op);
/// jr/callr — target in a register, invisible to a linear decoder.
bool is_indirect_branch(Opcode op);
/// call/callr — pushes a return address into lr.
bool is_call(Opcode op);
/// Absolute target of a direct branch at virtual address `va` (targets are
/// encoded relative to the *next* instruction). nullopt for non-direct ops.
std::optional<u32> direct_target(const Instruction& insn, u32 va);

/// Human-readable disassembly, e.g. "ld8 r1, [r2+16]".
std::string disassemble(const Instruction& insn);

/// FNV-1a over the decoded fields of an instruction sequence. The static
/// analyzer stamps its block-level elision proofs with this (sa elide
/// hints) and the engine recomputes it over a freshly translated block, so
/// a proof can never be applied to bytes that changed since analysis.
u64 insn_seq_hash(const Instruction* insns, size_t count);

}  // namespace faros::vm
