// FarosEngine unit tests: Table-I propagation rules at byte granularity,
// tag insertion, indirect-flow policy (Figures 1 and 2), tag confluence
// policies, whitelisting, hygiene, and a differential taint-soundness
// property test against an independent boolean-taint reference.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros::core {
namespace {

using attacks::emit_sys;
using os::ImageBuilder;
using os::kUserImageBase;
using os::Sys;
using vm::Assembler;
using vm::Reg;

constexpr FlowTuple kFlow{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};

class EngineTest : public ::testing::Test {
 protected:
  void init(Options opts) {
    // Most propagation tests want a quiet baseline: no image tainting.
    machine_ = std::make_unique<os::Machine>();
    engine_ = std::make_unique<FarosEngine>(machine_->kernel(), opts);
    machine_->attach_cpu_plugin(engine_.get());
    machine_->add_monitor(engine_.get());
    auto r = machine_->boot();
    ASSERT_TRUE(r.ok()) << r.error().message;
  }

  static Options quiet_options() {
    Options opts;
    opts.taint_mapped_images = false;
    return opts;
  }

  /// Installs + spawns `name` suspended so taint can be placed first.
  /// Fills src_ with the address of the "src" label when present.
  os::Pid spawn_suspended(const std::string& name,
                          const std::function<void(ImageBuilder&)>& build) {
    ImageBuilder ib(name, kUserImageBase);
    build(ib);
    auto img = ib.build();
    EXPECT_TRUE(img.ok()) << (img.ok() ? "" : img.error().message);
    auto src_off = ib.asm_().label_offset("src");
    src_ = src_off.ok() ? kUserImageBase + src_off.value() : 0;
    std::string path = "C:/test/" + name;
    machine_->kernel().vfs().create(path, img.value().serialize());
    auto pid = machine_->kernel().spawn(path, /*suspended=*/true);
    EXPECT_TRUE(pid.ok());
    return pid.ok() ? pid.value() : 0;
  }

  VAddr src_ = 0;  // address of the "src" label in the last spawned image

  /// Marks guest bytes as network-derived (as an NtRecv would).
  void taint_packet(os::Process& p, VAddr va, u32 len) {
    osi::GuestXfer xfer{p.info(), &p.as, va, len};
    engine_->on_packet_to_guest(xfer, kFlow);
  }

  void resume_and_run(os::Pid pid, u64 budget = 60000) {
    os::Process* p = machine_->kernel().find(pid);
    ASSERT_NE(p, nullptr);
    p->state = os::ProcState::kReady;
    machine_->run(budget);
    EXPECT_TRUE(machine_->kernel().trap_log().empty())
        << machine_->kernel().trap_log()[0];
  }

  ProvListId prov(os::Pid pid, VAddr va) {
    os::Process* p = machine_->kernel().find(pid);
    return engine_->prov_at(p->as, va);
  }

  std::unique_ptr<os::Machine> machine_;
  std::unique_ptr<FarosEngine> engine_;
};

// Keeps the process alive (so its address space stays inspectable) once
// the interesting work is done.
void end_spin(Assembler& a) {
  a.label("end_spin");
  emit_sys(a, Sys::kNtYield);
  a.jmp("end_spin");
}

// Common program scaffold: buffer labels "src" (tainted input) and "dst".
void scaffold_data(Assembler& a) {
  a.align(8);
  a.label("src");
  a.zeros(64);
  a.label("dst");
  a.zeros(64);
}

TEST_F(EngineTest, CopyPropagationThroughLoadStore) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("copy.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R2, Reg::R1, 0);
    a.movi_label(Reg::R3, "dst");
    a.st32(Reg::R3, 0, Reg::R2);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  VAddr dst = src + 64;
  taint_packet(*p, src, 4);
  resume_and_run(pid);

  ProvListId id = prov(pid, dst);
  ASSERT_NE(id, kEmptyProv);
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kNetflow));
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kProcess));
  // Chronology: netflow first, then the process.
  const auto& tags = engine_->store().get(id);
  EXPECT_EQ(tags[0].type(), TagType::kNetflow);
}

TEST_F(EngineTest, MoviConstantDeletesTaint) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("movi.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R2, Reg::R1, 0);   // r2 tainted
    a.movi(Reg::R2, 7);            // delete rule
    a.movi_label(Reg::R3, "dst");
    a.st32(Reg::R3, 0, Reg::R2);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 4);
  resume_and_run(pid);
  EXPECT_EQ(prov(pid, src + 64), kEmptyProv);
}

TEST_F(EngineTest, ArithmeticUnionsOperandTaint) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("union.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R2, Reg::R1, 0);   // netflow A (bytes 0..3)
    a.ld32(Reg::R3, Reg::R1, 8);   // netflow B (bytes 8..11)
    a.add(Reg::R4, Reg::R2, Reg::R3);
    a.movi_label(Reg::R5, "dst");
    a.st32(Reg::R5, 0, Reg::R4);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  // Two different flows -> two different netflow tags.
  osi::GuestXfer x1{p->info(), &p->as, src, 4};
  engine_->on_packet_to_guest(x1, kFlow);
  FlowTuple other{0x01020304, 53, 0xa9fe39a8, 49200};
  osi::GuestXfer x2{p->info(), &p->as, src + 8, 4};
  engine_->on_packet_to_guest(x2, other);
  resume_and_run(pid);

  ProvListId id = prov(pid, src + 64);
  const auto& tags = engine_->store().get(id);
  int netflows = 0;
  for (const auto& t : tags) {
    if (t.type() == TagType::kNetflow) ++netflows;
  }
  EXPECT_EQ(netflows, 2);  // union rule combined both flows
}

TEST_F(EngineTest, XorZeroIdiomDeletes) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("xor.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R2, Reg::R1, 0);
    a.xor_(Reg::R2, Reg::R2, Reg::R2);  // zero idiom
    a.movi_label(Reg::R3, "dst");
    a.st32(Reg::R3, 0, Reg::R2);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 4);
  resume_and_run(pid);
  EXPECT_EQ(prov(pid, src + 64), kEmptyProv);
}

TEST_F(EngineTest, ByteGranularTaintThroughLd8) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("byte.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld8(Reg::R2, Reg::R1, 1);    // only src[1] is tainted below
    a.movi_label(Reg::R3, "dst");
    a.st32(Reg::R3, 0, Reg::R2);   // stores 4 bytes; only byte 0 tainted
    a.st8(Reg::R3, 8, Reg::R2);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src + 1, 1);
  resume_and_run(pid);
  VAddr dst = src + 64;
  EXPECT_NE(prov(pid, dst + 0), kEmptyProv);   // low byte carries taint
  EXPECT_EQ(prov(pid, dst + 1), kEmptyProv);   // upper bytes are zero-ext
  EXPECT_EQ(prov(pid, dst + 2), kEmptyProv);
  EXPECT_EQ(prov(pid, dst + 3), kEmptyProv);
  EXPECT_NE(prov(pid, dst + 8), kEmptyProv);
}

// Figure 1 of the paper: address dependency through a lookup table.
void lookup_table_program(ImageBuilder& ib) {
  auto& a = ib.asm_();
  a.label("_start");
  // Build identity lookup table at "table" (256 bytes).
  a.movi_label(Reg::R1, "table");
  a.movi(Reg::R2, 0);
  a.label("init");
  a.cmpi(Reg::R2, 256);
  a.bgeu("init_done");
  a.add(Reg::R3, Reg::R1, Reg::R2);
  a.st8(Reg::R3, 0, Reg::R2);
  a.addi(Reg::R2, Reg::R2, 1);
  a.jmp("init");
  a.label("init_done");
  // dst[0] = table[src[0]] — the classic address dependency.
  a.movi_label(Reg::R4, "src");
  a.ld8(Reg::R5, Reg::R4, 0);      // tainted index
  a.add(Reg::R6, Reg::R1, Reg::R5);
  a.ld8(Reg::R7, Reg::R6, 0);      // table value (untainted content)
  a.movi_label(Reg::R8, "dst");
  a.st8(Reg::R8, 0, Reg::R7);
  end_spin(a);
  scaffold_data(a);
  a.label("table");
  a.zeros(256);
}

TEST_F(EngineTest, Fig1AddressDependencyNotPropagatedByDefault) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("fig1.exe", lookup_table_program);
  os::Process* p = machine_->kernel().find(pid);
  // Label offsets: 17 instructions, then src.
  VAddr src = src_;
  taint_packet(*p, src, 1);
  resume_and_run(pid);
  // Undertainting, by design (per-policy handling instead).
  EXPECT_EQ(prov(pid, src + 64), kEmptyProv);
}

TEST_F(EngineTest, Fig1AddressDependencyPropagatedWhenEnabled) {
  Options opts = quiet_options();
  opts.propagate_address_deps = true;
  init(opts);
  os::Pid pid = spawn_suspended("fig1b.exe", lookup_table_program);
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 1);
  resume_and_run(pid);
  ProvListId id = prov(pid, src + 64);
  ASSERT_NE(id, kEmptyProv);
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kNetflow));
}

// Figure 2 of the paper: control-dependency laundering. The copied-by-
// branches output is UNtainted — the documented limitation of not tracking
// control flow.
TEST_F(EngineTest, Fig2ControlDependencyLaundersTaint) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("fig2.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld8(Reg::R2, Reg::R1, 0);   // tainted input
    a.movi(Reg::R3, 0);           // output
    a.movi(Reg::R4, 1);           // bit
    a.label("bits");
    a.cmpi(Reg::R4, 256);
    a.bgeu("bits_done");
    a.and_(Reg::R5, Reg::R2, Reg::R4);
    a.cmpi(Reg::R5, 0);
    a.beq("skip");
    a.or_(Reg::R3, Reg::R3, Reg::R4);  // r4 is a constant: no taint
    a.label("skip");
    a.shli(Reg::R4, Reg::R4, 1);
    a.jmp("bits");
    a.label("bits_done");
    a.movi_label(Reg::R6, "dst");
    a.st8(Reg::R6, 0, Reg::R3);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 1);
  resume_and_run(pid);
  // The copy is perfect but invisible to DIFT (Section VI-D).
  EXPECT_EQ(prov(pid, src + 64), kEmptyProv);
}

TEST_F(EngineTest, ExportTablePointersAreTaggedOnModuleLoad) {
  init(quiet_options());
  const auto& mods = machine_->kernel().modules();
  ASSERT_GE(mods.size(), 1u);
  const auto& ntdll = mods[0];
  const auto& as = machine_->kernel().kernel_as();
  // addr field of export 0.
  ProvListId id = engine_->prov_at(as, ntdll.exports_va + 8);
  ASSERT_NE(id, kEmptyProv);
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kExportTable));
  // count and hash fields are not tagged.
  EXPECT_EQ(engine_->prov_at(as, ntdll.exports_va), kEmptyProv);
  EXPECT_EQ(engine_->prov_at(as, ntdll.exports_va + 4), kEmptyProv);
}

TEST_F(EngineTest, ImageMappingAppliesFileTag) {
  Options opts;  // default: taint_mapped_images = true
  init(opts);
  os::Pid pid = spawn_suspended("tagged.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    end_spin(a);
  });
  ProvListId id = prov(pid, kUserImageBase);
  ASSERT_NE(id, kEmptyProv);
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kFile));
  EXPECT_TRUE(engine_->store().contains_type(id, TagType::kProcess));
}

TEST_F(EngineTest, KernelWriteClearsStaleTaint) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("stale.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.movi(Reg::R2, 8);
    emit_sys(a, Sys::kNtGetRandom);  // kernel overwrites src
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 8);
  ASSERT_NE(prov(pid, src), kEmptyProv);
  resume_and_run(pid);
  EXPECT_EQ(prov(pid, src), kEmptyProv);  // kernel write cleared it
}

TEST_F(EngineTest, SyscallResultRegisterIsUntainted) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("sysr.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R1, "src");
    a.ld32(Reg::R0, Reg::R1, 0);      // r0 tainted
    emit_sys(a, Sys::kNtGetCurrentPid);  // r0 = kernel result now
    a.movi_label(Reg::R3, "dst");
    a.st32(Reg::R3, 0, Reg::R0);
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 4);
  resume_and_run(pid);
  EXPECT_EQ(prov(pid, src + 64), kEmptyProv);
}

TEST_F(EngineTest, NetflowTrackingCanBeDisabled) {
  Options opts = quiet_options();
  opts.track_netflow = false;
  init(opts);
  os::Pid pid = spawn_suspended("abl.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  VAddr src = src_;
  taint_packet(*p, src, 8);
  EXPECT_EQ(prov(pid, src), kEmptyProv);  // insertion ablated
}

TEST_F(EngineTest, CustomPolicyAndWhitelist) {
  struct AnyTaintedExportRead final : FlagPolicy {
    const char* name() const override { return "any-export-read"; }
    bool matches(const ProvStore& store, ProvListId,
                 ProvListId target) const override {
      return store.contains_type(target, TagType::kExportTable);
    }
  };
  Options opts = quiet_options();
  opts.whitelist.insert("white.exe");
  init(opts);
  engine_->add_policy(std::make_unique<AnyTaintedExportRead>());
  // A benign program that reads the export table directly (via guest
  // GetProcAddress) now matches the custom policy, but is whitelisted.
  os::Pid pid = spawn_suspended("white.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R9, os::KernelLayout::kNtdllBase);
    a.movi(Reg::R1, fnv1a32(os::sym::kUser32));
    a.movi(Reg::R2, fnv1a32(os::sym::kMessageBox));
    a.callr(Reg::R9);
    end_spin(a);
  });
  resume_and_run(pid);
  ASSERT_FALSE(engine_->findings().empty());
  EXPECT_TRUE(engine_->findings()[0].whitelisted);
  EXPECT_FALSE(engine_->flagged());  // suppressed
  EXPECT_TRUE(engine_->active_findings().empty());
}

// ---------------------------------------------------------------------------
// Differential property: on random straight-line direct-flow programs, the
// engine's per-byte taint equals an independent boolean-taint reference.

struct RefState {
  bool reg[16][4] = {};
  std::map<u32, bool> mem;  // offset in buffer -> tainted
};

TEST_F(EngineTest, RandomDirectFlowProgramsMatchBooleanReference) {
  Rng rng(2024);
  for (int iter = 0; iter < 15; ++iter) {
    init(quiet_options());
    struct Op {
      int kind;  // 0 movi, 1 mov, 2 add, 3 ld32, 4 st32, 5 ld8, 6 st8
      u8 rd, rs1, rs2;
      u32 off;
    };
    std::vector<Op> ops;
    for (int i = 0; i < 40; ++i) {
      Op op;
      op.kind = static_cast<int>(rng.below(7));
      op.rd = static_cast<u8>(1 + rng.below(7));
      op.rs1 = static_cast<u8>(1 + rng.below(7));
      op.rs2 = static_cast<u8>(1 + rng.below(7));
      op.off = static_cast<u32>(rng.below(15)) * 4;  // within 64-byte buffer
      ops.push_back(op);
    }

    os::Pid pid = spawn_suspended(
        "prop" + std::to_string(iter) + ".exe", [&](ImageBuilder& ib) {
          auto& a = ib.asm_();
          a.label("_start");
          a.movi_label(Reg::R8, "src");  // buffer base in r8 (never random)
          for (const Op& op : ops) {
            switch (op.kind) {
              case 0: a.movi(static_cast<Reg>(op.rd), 5); break;
              case 1:
                a.mov(static_cast<Reg>(op.rd), static_cast<Reg>(op.rs1));
                break;
              case 2:
                a.add(static_cast<Reg>(op.rd), static_cast<Reg>(op.rs1),
                      static_cast<Reg>(op.rs2));
                break;
              case 3:
                a.ld32(static_cast<Reg>(op.rd), Reg::R8,
                       static_cast<i32>(op.off));
                break;
              case 4:
                a.st32(Reg::R8, static_cast<i32>(op.off),
                       static_cast<Reg>(op.rs1));
                break;
              case 5:
                a.ld8(static_cast<Reg>(op.rd), Reg::R8,
                      static_cast<i32>(op.off));
                break;
              case 6:
                a.st8(Reg::R8, static_cast<i32>(op.off),
                      static_cast<Reg>(op.rs1));
                break;
            }
          }
          end_spin(a);
          scaffold_data(a);
        });
    os::Process* p = machine_->kernel().find(pid);
    VAddr src = src_;

    // Taint a random subset of input bytes; mirror into the reference.
    RefState ref;
    for (u32 b = 0; b < 64; ++b) {
      if (rng.chance(0.3)) {
        osi::GuestXfer xfer{p->info(), &p->as, src + b, 1};
        engine_->on_packet_to_guest(xfer, kFlow);
        ref.mem[b] = true;
      }
    }

    // Reference simulation (byte-level, same Table-I rules).
    auto mem_taint = [&](u32 off) {
      auto it = ref.mem.find(off);
      return it != ref.mem.end() && it->second;
    };
    for (const Op& op : ops) {
      switch (op.kind) {
        case 0:
          for (auto& b : ref.reg[op.rd]) b = false;
          break;
        case 1:
          for (int b = 0; b < 4; ++b) ref.reg[op.rd][b] = ref.reg[op.rs1][b];
          break;
        case 2: {
          bool any = false;
          for (int b = 0; b < 4; ++b) {
            any |= ref.reg[op.rs1][b] | ref.reg[op.rs2][b];
          }
          for (auto& b : ref.reg[op.rd]) b = any;
          break;
        }
        case 3:
          for (int b = 0; b < 4; ++b) {
            ref.reg[op.rd][b] = mem_taint(op.off + b);
          }
          break;
        case 4:
          for (int b = 0; b < 4; ++b) {
            ref.mem[op.off + b] = ref.reg[op.rs1][b];
          }
          break;
        case 5:
          ref.reg[op.rd][0] = mem_taint(op.off);
          for (int b = 1; b < 4; ++b) ref.reg[op.rd][b] = false;
          break;
        case 6:
          ref.mem[op.off] = ref.reg[op.rs1][0];
          break;
      }
    }

    resume_and_run(pid);
    for (u32 b = 0; b < 64; ++b) {
      bool engine_tainted = prov(pid, src + b) != kEmptyProv;
      EXPECT_EQ(engine_tainted, mem_taint(b))
          << "iter " << iter << " byte " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Finding bookkeeping: dedup key, max_findings cap, whitelist interaction.
// These drive on_insn_retired() directly with synthesized events so the
// same tainted load site can be replayed under different (cr3, pc, rule)
// combinations.

class FindingTest : public EngineTest {
 protected:
  /// Spawns a suspended helper whose image supplies a mapped code page and
  /// a tainted "src" buffer, and remembers what a synthesized load of that
  /// buffer needs: the address space, physical addresses, and real cr3.
  void arm(Options opts, const std::string& name = "victim.exe") {
    init(opts);
    pid_ = spawn_suspended(name, [](ImageBuilder& ib) {
      auto& a = ib.asm_();
      a.label("_start");
      end_spin(a);
      scaffold_data(a);
    });
    proc_ = machine_->kernel().find(pid_);
    ASSERT_NE(proc_, nullptr);
    taint_packet(*proc_, src_, 4);
    src_pa_ = proc_->as.translate(src_, vm::AccessType::kRead, true).value();
  }

  /// A retired `ld32 r2, [r1+0]` of the tainted buffer at `pc` under `cr3`.
  void retire_tainted_load(PAddr cr3, VAddr pc) {
    vm::InsnEvent ev;
    ev.instr_index = ++instr_index_;
    ev.cr3 = cr3;
    ev.pc = pc;
    ev.pc_pa = proc_->as.translate(pc, vm::AccessType::kExec, true).value();
    ev.insn.op = vm::Opcode::kLd32;
    ev.insn.rd = 2;
    ev.insn.rs1 = 1;
    ev.mem = vm::MemAccess{src_, src_pa_, 4, false};
    engine_->on_insn_retired(ev, proc_->as);
  }

  static RuleSpec always_rule(const char* id) {
    RuleSpec r;  // empty conjunction: matches every tainted load
    r.id = id;
    r.trigger = Trigger::kTaintedLoad;
    return r;
  }

  os::Pid pid_ = 0;
  os::Process* proc_ = nullptr;
  PAddr src_pa_ = 0;
  u64 instr_index_ = 0;
};

TEST_F(FindingTest, DedupKeyDistinguishesProcessAndRule) {
  Options opts = quiet_options();
  opts.rules = {always_rule("rule-a"), always_rule("rule-b")};
  arm(opts);
  const VAddr pc = kUserImageBase;
  const PAddr cr3 = proc_->as.cr3();

  // One site, two matching rules: a finding per rule, not per pc.
  retire_tainted_load(cr3, pc);
  EXPECT_EQ(engine_->findings().size(), 2u);

  // Same pc from a different address space must not collapse into the
  // first process's findings (the old `(pc<<8)|rule` key did exactly
  // that: cr3 was not part of the key).
  retire_tainted_load(cr3 + 0x1000, pc);
  EXPECT_EQ(engine_->findings().size(), 4u);

  // Exact repeats stay deduped.
  retire_tainted_load(cr3, pc);
  retire_tainted_load(cr3 + 0x1000, pc);
  EXPECT_EQ(engine_->findings().size(), 4u);
}

TEST_F(FindingTest, MaxFindingsCapsRecordingNotEvaluation) {
  Options opts = quiet_options();
  opts.rules = {always_rule("cap-rule")};
  opts.max_findings = 2;
  arm(opts);
  const PAddr cr3 = proc_->as.cr3();
  for (u32 k = 0; k < 4; ++k) {
    retire_tainted_load(cr3, kUserImageBase + k * vm::kInsnSize);
  }
  EXPECT_EQ(engine_->findings().size(), 2u);
  EXPECT_TRUE(engine_->flagged());
  // Rules keep evaluating (and hitting) past the cap; only recording stops.
  EXPECT_EQ(engine_->rule_engine().rule_stats(0).hits, 4u);
  // The cap never consumed dedup-set slots for unrecorded findings, so
  // nothing was "remembered as seen" without being recorded.
  retire_tainted_load(cr3, kUserImageBase + 3 * vm::kInsnSize);
  EXPECT_EQ(engine_->findings().size(), 2u);
}

TEST_F(FindingTest, WhitelistMissKeepsFindingActive) {
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  opts.whitelist.insert("innocent.exe");  // does not match victim.exe
  arm(opts);
  retire_tainted_load(proc_->as.cr3(), kUserImageBase);
  ASSERT_EQ(engine_->findings().size(), 1u);
  const Finding& f = engine_->findings()[0];
  EXPECT_EQ(f.proc.name, "victim.exe");
  EXPECT_FALSE(f.whitelisted);
  EXPECT_TRUE(engine_->flagged());
  EXPECT_EQ(engine_->active_findings().size(), 1u);
}

TEST_F(FindingTest, UnknownProcessFindingsCarrySentinelName) {
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  retire_tainted_load(proc_->as.cr3() + 0x1000, kUserImageBase);
  ASSERT_EQ(engine_->findings().size(), 1u);
  EXPECT_EQ(engine_->findings()[0].proc.name, "<unknown>");
  EXPECT_FALSE(engine_->findings()[0].whitelisted);
  EXPECT_TRUE(engine_->flagged());
}

TEST_F(FindingTest, UnknownProcessCanBeWhitelistedBySentinel) {
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  opts.whitelist.insert("<unknown>");
  arm(opts);
  retire_tainted_load(proc_->as.cr3() + 0x1000, kUserImageBase);
  ASSERT_EQ(engine_->findings().size(), 1u);
  EXPECT_TRUE(engine_->findings()[0].whitelisted);
  EXPECT_FALSE(engine_->flagged());
}

TEST_F(FindingTest, FindingResolvesEachProcessThroughOsi) {
  // Process identity comes from the OSI query on the event's cr3: two live
  // processes flagging the same va each carry their own pid, name and cr3.
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  os::Pid other = spawn_suspended("other.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* other_proc = machine_->kernel().find(other);
  ASSERT_NE(other_proc, nullptr);
  ASSERT_NE(other_proc->as.cr3(), proc_->as.cr3());

  retire_tainted_load(proc_->as.cr3(), kUserImageBase);
  retire_tainted_load(other_proc->as.cr3(), kUserImageBase);
  const std::vector<Finding>& fs = engine_->findings();
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0].proc.pid, pid_);
  EXPECT_EQ(fs[0].proc.name, "victim.exe");
  EXPECT_EQ(fs[0].proc.cr3, proc_->as.cr3());
  EXPECT_EQ(fs[1].proc.pid, other);
  EXPECT_EQ(fs[1].proc.name, "other.exe");
  EXPECT_EQ(fs[1].proc.cr3, other_proc->as.cr3());
}

TEST_F(FindingTest, FindingRecordsSiteAndProvenanceFromInsnEvent) {
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  const VAddr pc = kUserImageBase + 4 * vm::kInsnSize;
  retire_tainted_load(proc_->as.cr3(), pc);
  ASSERT_EQ(engine_->findings().size(), 1u);
  const Finding& f = engine_->findings()[0];
  EXPECT_EQ(f.policy, "strict");
  EXPECT_EQ(f.instr_index, instr_index_);
  EXPECT_EQ(f.insn_va, pc);
  EXPECT_EQ(f.insn_pa,
            proc_->as.translate(pc, vm::AccessType::kExec, true).value());
  EXPECT_EQ(f.target_va, src_);
  EXPECT_EQ(f.disasm.rfind("ld32", 0), 0u) << f.disasm;
  // Untainted code (images are not tainted here), netflow-tainted target.
  EXPECT_EQ(f.fetch_prov, kEmptyProv);
  EXPECT_NE(f.target_prov, kEmptyProv);
  EXPECT_TRUE(engine_->store().contains_type(f.target_prov, TagType::kNetflow));
}

TEST_F(FindingTest, CodeWindowSnapshotsLiveBytesAtFindingTime) {
  // The window is copied from the live address space when the finding is
  // recorded, so a payload that later wipes itself leaves the analyst the
  // bytes that actually ran.
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  const VAddr pc = kUserImageBase + 4 * vm::kInsnSize;
  Bytes before(12 * vm::kInsnSize);
  ASSERT_TRUE(proc_->as.copy_out(kUserImageBase, before, false).ok());

  retire_tainted_load(proc_->as.cr3(), pc);
  ASSERT_EQ(engine_->findings().size(), 1u);
  const Finding& f = engine_->findings()[0];
  EXPECT_EQ(f.code_base, kUserImageBase);
  EXPECT_EQ(f.code_window, before);

  Bytes wiped(before.size(), 0);
  ASSERT_TRUE(proc_->as.copy_in(kUserImageBase, wiped, false).ok());
  Bytes after(before.size());
  ASSERT_TRUE(proc_->as.copy_out(kUserImageBase, after, false).ok());
  EXPECT_EQ(after, wiped);
  EXPECT_EQ(engine_->findings()[0].code_window, before);
}

}  // namespace
}  // namespace faros::core
