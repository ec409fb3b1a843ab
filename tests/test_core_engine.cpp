// FarosEngine unit tests: Table-I propagation rules at byte granularity,
// tag insertion, indirect-flow policy (Figures 1 and 2), tag confluence
// policies, whitelisting, hygiene, and a differential taint-soundness
// property test against an independent boolean-taint reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>

#include "attacks/guest_common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "os/machine.h"
#include "os/runtime.h"
#include "vm/mmu.h"
#include "vm/phys_mem.h"

namespace faros::core {
namespace {

using attacks::emit_sys;
using os::ImageBuilder;
using os::kUserImageBase;
using os::Sys;
using vm::Assembler;
using vm::Reg;

constexpr FlowTuple kFlow{0xa9fe1aa1, 4444, 0xa9fe39a8, 49162};

/// The machine's OSI, counting the CR3 lookups the engine makes.
class CountingOsi : public os::OsiQuery {
 public:
  std::optional<osi::ProcessInfo> process_by_cr3(PAddr cr3) const override {
    ++by_cr3;
    return real->process_by_cr3(cr3);
  }
  std::vector<osi::ProcessInfo> process_list() const override {
    return real->process_list();
  }
  const os::OsiQuery* real = nullptr;
  mutable u32 by_cr3 = 0;
};

class EngineTest : public ::testing::Test {
 protected:
  void init(Options opts) {
    // Most propagation tests want a quiet baseline: no image tainting.
    machine_ = std::make_unique<os::Machine>();
    osi_.real = &machine_->kernel();
    engine_ = std::make_unique<FarosEngine>(osi_, opts);
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

  CountingOsi osi_;
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

// on_image_mapped tags by page. Reference, byte by byte: a byte of an
// unmapped page gets nothing; a byte whose file offset carries shadow gets
// that list + the image's file tag + the process tag; every other byte the
// plain [file, process] list. The image starts mid-page, spans three pages
// with the middle one unmapped, and the shadowed file ranges straddle the
// unmapped page's both edges.
TEST_F(EngineTest, ImageTaggingByPageMatchesPerByteReference) {
  init(Options{});
  os::Pid pid = spawn_suspended("mapper.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    end_spin(a);
    scaffold_data(a);
  });
  os::Process* p = machine_->kernel().find(pid);
  const std::string path = "C:/test/stage2.bin";
  machine_->kernel().vfs().create(path, Bytes(3 * vm::kPageSize, 0x90));
  const u32 file_id = machine_->kernel().vfs().stat(path).value().file_id;

  constexpr VAddr kPage0 = 0x10000000;
  constexpr VAddr kBase = kPage0 + 0x100;
  constexpr u32 kLen = 3 * vm::kPageSize - 0x200;
  ASSERT_TRUE(p->as.map_alloc(kPage0, 3 * vm::kPageSize, vm::kPteUser).ok());
  ASSERT_TRUE(p->as.unmap_page(kPage0 + vm::kPageSize, true).ok());

  // The process writes 16 network-borne bytes into the file twice: file
  // offsets straddling the end of page 0 and the start of page 2.
  taint_packet(*p, src_, 16);
  std::map<u32, ProvListId> file_prov;  // file offset -> shadow list
  for (u32 off : {vm::kPageSize - 0x108, 2 * vm::kPageSize - 0x104}) {
    osi::GuestXfer xfer{p->info(), &p->as, src_, 16};
    engine_->on_file_write(xfer, file_id, path, 1, off);
    for (u32 k = 0; k < 16; ++k) file_prov[off + k] = prov(pid, src_ + k);
  }
  engine_->on_image_mapped(p->info(), p->as, kBase, kLen, file_id, path, 2);

  const ProvStore& store = engine_->store();
  const ProvListId plain = prov(pid, kBase);
  ASSERT_NE(plain, kEmptyProv);
  const std::vector<ProvTag> plain_tags = store.get(plain);
  ASSERT_EQ(plain_tags.size(), 2u);
  EXPECT_EQ(plain_tags[0].type(), TagType::kFile);
  EXPECT_EQ(plain_tags[1].type(), TagType::kProcess);
  u32 merged = 0;
  for (u32 i = 0; i < kLen; ++i) {
    if (!p->as.is_mapped(kBase + i)) continue;
    const ProvListId got = prov(pid, kBase + i);
    auto it = file_prov.find(i);
    if (it == file_prov.end()) {
      ASSERT_EQ(got, plain) << "byte " << i;
      continue;
    }
    std::vector<ProvTag> want = store.get(it->second);
    for (const ProvTag& t : plain_tags) {
      if (std::find(want.begin(), want.end(), t) == want.end()) {
        want.push_back(t);
      }
    }
    ASSERT_EQ(store.get(got), want) << "byte " << i;
    ++merged;
  }
  EXPECT_EQ(merged, 8u + 12u);  // the shadowed bytes on mapped pages
  // Bytes of the mapped pages outside the image stay untagged.
  EXPECT_EQ(prov(pid, kPage0), kEmptyProv);
  EXPECT_EQ(prov(pid, kBase - 1), kEmptyProv);
  EXPECT_EQ(prov(pid, kBase + kLen), kEmptyProv);
}

// The fetch-provenance cache must not outlive a process: a later process
// on the recycled CR3 fetching the same tainted shared code (kernel32's
// Sleep) walks the bytes again and appends its own process tag.
TEST_F(EngineTest, RecycledCr3NeverReadsTheDeadProcessFetchProvenance) {
  init(quiet_options());
  // Instrument every instruction, so each fetch reaches the fetch cache
  // through on_insn_retired. The elided path shares that cache; the
  // BtCacheEngine suite covers it with the block cache on.
  machine_->kernel().interp().set_block_cache_enabled(false);
  const std::string path = "C:/test/sleeper.exe";
  os::Pid first = spawn_suspended("sleeper.exe", [](ImageBuilder& ib) {
    // The IAT slot is labelled "src" so spawn_suspended records its VA.
    ib.import_symbol(os::sym::kKernel32, os::sym::kSleep, "src");
    auto& a = ib.asm_();
    a.label("_start");
    a.movi_label(Reg::R4, "src");
    a.ld32(Reg::R4, Reg::R4, 0);
    a.movi(Reg::R1, 1);
    a.callr(Reg::R4);
    a.movi(Reg::R1, 0);
    emit_sys(a, Sys::kNtExit);
    a.align(8);
    a.label("src");
    a.data_u32(0);
  });
  os::Process* p1 = machine_->kernel().find(first);
  const PAddr cr3 = p1->as.cr3();
  const VAddr sleep_va = p1->as.read32_or(src_, 0);
  ASSERT_NE(sleep_va, 0u);
  taint_packet(*p1, sleep_va, vm::kInsnSize);
  resume_and_run(first);
  ASSERT_EQ(p1->state, os::ProcState::kTerminated);
  const vm::AddressSpace& kas = machine_->kernel().kernel_as();
  EXPECT_EQ(engine_->store().process_count(engine_->prov_at(kas, sleep_va)),
            1u);

  auto second = machine_->kernel().spawn(path, /*suspended=*/true);
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(machine_->kernel().find(second.value())->as.cr3(), cr3);
  resume_and_run(second.value());
  EXPECT_EQ(engine_->store().process_count(engine_->prov_at(kas, sleep_va)),
            2u);
}

// A process's record lives from its start event to its exit: registers()
// answers before the first instruction, and a recycled CR3 starts clean.
TEST_F(EngineTest, RegistersLiveFromProcessStartUntilExit) {
  init(quiet_options());
  os::Pid pid = spawn_suspended("short.exe", [](ImageBuilder& ib) {
    auto& a = ib.asm_();
    a.label("_start");
    a.movi(Reg::R1, 0);
    emit_sys(a, Sys::kNtExit);
  });
  os::Process* p = machine_->kernel().find(pid);
  const PAddr cr3 = p->as.cr3();
  const ShadowRegisters* sr = engine_->registers(cr3);
  ASSERT_NE(sr, nullptr);
  EXPECT_TRUE(sr->clean());
  resume_and_run(pid);
  ASSERT_EQ(p->state, os::ProcState::kTerminated);
  EXPECT_EQ(engine_->registers(cr3), nullptr);

  auto again = machine_->kernel().spawn("C:/test/short.exe", true);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(machine_->kernel().find(again.value())->as.cr3(), cr3);
  EXPECT_NE(engine_->registers(cr3), nullptr);
  // Each start event adds its own process-map entry.
  EXPECT_EQ(engine_->maps().process.size(), 2u);
  EXPECT_EQ(osi_.by_cr3, 0u);
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
  auto pred = parse_predicate("target has-type:export-table");
  ASSERT_TRUE(pred.ok()) << pred.error().message;
  RuleSpec any_export_read;
  any_export_read.id = "any-export-read";
  any_export_read.trigger = Trigger::kTaintedLoad;
  any_export_read.when = {pred.value()};
  Options opts = quiet_options();
  opts.rules = {any_export_read};
  opts.whitelist.insert("white.exe");
  init(opts);
  // A benign program that reads the export table directly (via guest
  // GetProcAddress) now matches the custom rule, but is whitelisted.
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
  EXPECT_EQ(engine_->findings()[0].policy, "any-export-read");
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

  /// A retired `ld32 r2, [r1+0]` of the tainted buffer at `pc` under `cr3`,
  /// fed to `engine` (default: the attached one).
  void retire_tainted_load(PAddr cr3, VAddr pc,
                           FarosEngine* engine = nullptr) {
    vm::InsnEvent ev;
    ev.instr_index = ++instr_index_;
    ev.cr3 = cr3;
    ev.pc = pc;
    ev.pc_pa = proc_->as.translate(pc, vm::AccessType::kExec, true).value();
    ev.insn.op = vm::Opcode::kLd32;
    ev.insn.rd = 2;
    ev.insn.rs1 = 1;
    ev.mem = vm::MemAccess{src_, src_pa_, 4, false};
    (engine ? engine : engine_.get())->on_insn_retired(ev, proc_->as);
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

TEST_F(FindingTest, FindingCarriesTheStartEventIdentity) {
  // A started process's finding reads pid, parent and name from its
  // record, made at the start event: no OSI lookup.
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  auto child = machine_->kernel().spawn("C:/test/victim.exe", true, pid_);
  ASSERT_TRUE(child.ok());
  const PAddr child_cr3 = machine_->kernel().find(child.value())->as.cr3();
  const u32 lookups = osi_.by_cr3;
  retire_tainted_load(child_cr3, kUserImageBase);
  ASSERT_EQ(engine_->findings().size(), 1u);
  const osi::ProcessInfo& who = engine_->findings()[0].proc;
  EXPECT_EQ(who.pid, child.value());
  EXPECT_EQ(who.parent_pid, pid_);
  EXPECT_EQ(who.name, "victim.exe");
  EXPECT_EQ(who.cr3, child_cr3);
  EXPECT_EQ(osi_.by_cr3, lookups);
}

TEST_F(FindingTest, UnannouncedCr3GetsOsiIdentityOrUnknown) {
  // An engine that saw no start event (attached after the spawn) resolves
  // a CR3 through the OSI once, at its first touch: a live process gets its
  // identity, any other CR3 the <unknown> sentinel.
  Options opts = quiet_options();
  opts.rules = {always_rule("strict")};
  arm(opts);
  FarosEngine late(osi_, opts);
  osi::GuestXfer xfer{proc_->info(), &proc_->as, src_, 4};
  const u32 before = osi_.by_cr3;
  late.on_packet_to_guest(xfer, kFlow);  // first touch of the CR3
  EXPECT_EQ(osi_.by_cr3, before + 1);
  retire_tainted_load(proc_->as.cr3(), kUserImageBase, &late);
  retire_tainted_load(proc_->as.cr3() + 0x1000, kUserImageBase, &late);
  ASSERT_EQ(late.findings().size(), 2u);
  EXPECT_EQ(osi_.by_cr3, before + 2);
  const osi::ProcessInfo& live = late.findings()[0].proc;
  EXPECT_EQ(live.pid, pid_);
  EXPECT_EQ(live.name, "victim.exe");
  EXPECT_EQ(live.cr3, proc_->as.cr3());
  const osi::ProcessInfo& unknown = late.findings()[1].proc;
  EXPECT_EQ(unknown.pid, 0u);
  EXPECT_EQ(unknown.name, "<unknown>");
  EXPECT_EQ(unknown.cr3, proc_->as.cr3() + 0x1000);
  EXPECT_TRUE(engine_->findings().empty());
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

// --- the elision epoch (DESIGN.md §3g) -------------------------------------

TEST(ElisionEpoch, MovesOnEveryEventThatCanChangeAGrant) {
  // A block grant holds while the epoch is unchanged, so the epoch must move
  // on every shadow mutation (page drops included), on every register byte
  // that turns tainted, and on every added rule set. It need not move when
  // taint only goes away from a register or changes lists.
  ProvStore store;
  const ProvListId a = store.intern({ProvTag::netflow(1)});
  const ProvListId b = store.intern({ProvTag::netflow(2)});
  ShadowMemory sm;
  u64* epoch = sm.epoch();
  EXPECT_GE(*epoch, 1u);  // a block's grant of 0 never matches
  auto moves = [&](const std::function<void()>& fn) {
    const u64 before = *epoch;
    fn();
    return *epoch != before;
  };
  constexpr PAddr kPage = 0x5000;
  EXPECT_TRUE(moves([&] { sm.set(kPage, a); }));
  EXPECT_FALSE(moves([&] { sm.set(kPage, a); }));
  EXPECT_TRUE(moves([&] { sm.set(kPage, b); }));
  // The last tainted byte of a page cleared: the page drops.
  EXPECT_TRUE(moves([&] { sm.set(kPage, kEmptyProv); }));
  EXPECT_EQ(sm.pages(), 0u);
  EXPECT_FALSE(moves([&] { sm.set(kPage, kEmptyProv); }));
  EXPECT_TRUE(moves([&] { sm.fill(kPage + 8, 8, a); }));
  EXPECT_TRUE(moves([&] { sm.clear_range(kPage + 8, 4); }));
  EXPECT_TRUE(moves([&] { sm.clear_range(kPage + 12, 4); }));  // drop
  EXPECT_EQ(sm.pages(), 0u);
  sm.fill(kPage, 4, a);
  EXPECT_TRUE(moves([&] { sm.clear_range(kPage, ShadowMemory::kPageBytes); }));
  EXPECT_EQ(sm.pages(), 0u);
  EXPECT_FALSE(moves([&] { sm.clear_range(kPage, 8); }));
  sm.set(kPage, a);
  EXPECT_TRUE(moves([&] { sm.clear(); }));
  EXPECT_FALSE(moves([&] { sm.clear(); }));

  ShadowRegisters regs(epoch);
  EXPECT_TRUE(moves([&] { regs.set(vm::R3, 0, a); }));
  EXPECT_FALSE(moves([&] { regs.set(vm::R3, 0, b); }));
  EXPECT_FALSE(moves([&] { regs.clear_reg(vm::R3); }));
  EXPECT_TRUE(moves([&] { regs.set_all(vm::R4, a); }));
  EXPECT_FALSE(moves([&] { regs.set_all(vm::R4, b); }));
  EXPECT_FALSE(moves([&] { regs.set_all(vm::R4, kEmptyProv); }));

  os::Machine m;
  FarosEngine engine(m.kernel(), Options{});
  const u64* engine_epoch = engine.elision_grants().epoch;
  ASSERT_NE(engine_epoch, nullptr);
  const u64 before = *engine_epoch;
  engine.add_rule_set({});
  EXPECT_NE(*engine_epoch, before);
}

// ---------------------------------------------------------------------------
// Table I, exhaustively: every defined opcode under every (rd, rs1, rs2)
// triple, retired one instruction at a time by the interpreter into the
// engine. Every register byte and every memory byte the instruction can
// touch carries its own netflow tag, so the tags a written register or
// memory byte ends up holding name exactly the registers whose provenance
// reached it. Block elision trusts vm::taint_footprint to say which
// registers an instruction reads and writes; this checks it against what
// the engine does. Address dependencies are on, so the footprint's
// loads and stores (which count their address register) are exact too.

/// OSI stand-in for an engine driven without a kernel: one process.
struct SoloOsi : os::OsiQuery {
  osi::ProcessInfo proc;
  std::optional<osi::ProcessInfo> process_by_cr3(PAddr cr3) const override {
    if (cr3 == proc.cr3) return proc;
    return std::nullopt;
  }
  std::vector<osi::ProcessInfo> process_list() const override {
    return {proc};
  }
};

class TableIHarness {
 public:
  static constexpr VAddr kCode = 0x10000;
  static constexpr VAddr kData = 0x40000;
  static constexpr VAddr kTags = 0x41000;  // per register byte: one tag
  static constexpr VAddr kPtr = kData + 0x800;  // every register holds it
  // Memory the instruction can touch: push writes [ptr-4, ptr), loads,
  // stores and pop use [ptr, ptr+4), and an operand of pc addresses code.
  static constexpr VAddr kWindow = kPtr - 4;
  static constexpr u32 kWindowBytes = 8;
  static constexpr u32 kRegLanes = vm::kNumRegs * 4;

  TableIHarness() : frames_(mem_.num_frames()) {
    frames_.reserve(0);
    as_ = vm::AddressSpace::create(mem_, frames_).value();
    const u32 rw = vm::kPteUser | vm::kPteWrite;
    EXPECT_TRUE(as_.map_alloc(kCode, vm::kPageSize, rw | vm::kPteExec).ok());
    EXPECT_TRUE(as_.map_alloc(kData, vm::kPageSize, rw).ok());
    EXPECT_TRUE(as_.map_alloc(kTags, vm::kPageSize, rw).ok());
    code_pa_ = pa(kCode);
    osi_.proc = {1, 0, as_.cr3(), "tablei.exe"};

    Options opts;
    opts.track_process = false;  // tags name sources only
    opts.propagate_address_deps = true;
    RuleSpec fetch_only;  // replaces the built-ins; code stays clean
    fetch_only.id = "fetch";
    fetch_only.trigger = Trigger::kTaintedFetch;
    opts.rules = {fetch_only};
    engine_ = std::make_unique<FarosEngine>(osi_, opts);
    interp_.set_block_cache_enabled(false);
    interp_.set_hooks(engine_.get());

    for (u32 lane = 0; lane < kRegLanes; ++lane) taint(kTags + lane, lane);
    for (u32 i = 0; i < kWindowBytes; ++i) taint(kWindow + i, kRegLanes + i);
    for (u32 lane = 0; lane < kRegLanes + kWindowBytes; ++lane) {
      const VAddr va = lane < kRegLanes ? kTags + lane
                                        : kWindow + (lane - kRegLanes);
      const auto tags = engine_->store().get(shadow(va));
      EXPECT_EQ(tags.size(), 1u);
      if (!tags.empty()) source_of_[tags[0].key()] = lane;
    }
    for (u8 r = 0; r < vm::kNumRegs; ++r) seed_reg(r);
    snapshot_window();
  }

  struct Observed {
    u16 reads = 0;          // registers whose tags reached a written byte
    u16 writes = 0;         // registers whose shadow changed
    bool mem_written = false;
    bool shadow_moved = false;  // the shadow epoch or tainted count moved
    ProvListId bank[vm::kNumRegs][4] = {};  // the registers after it
  };

  /// Retires `insn` from a freshly seeded state and reports what moved.
  Observed retire(const vm::Instruction& insn) {
    Bytes code;
    vm::encode(insn, code);
    EXPECT_TRUE(as_.copy_in(kCode, code, false).ok());
    vm::CpuState cpu;
    for (u32& r : cpu.regs) r = kPtr;  // nonzero: divu never traps
    cpu.set_pc(kCode);
    const u64 epoch = *engine_->elision_grants().epoch;
    const u64 tainted = engine_->shadow().tainted_bytes();
    interp_.run(cpu, as_, 1);

    Observed o;
    o.shadow_moved = *engine_->elision_grants().epoch != epoch ||
                     engine_->shadow().tainted_bytes() != tainted;
    const ShadowRegisters& sr = regs();
    for (u8 r = 0; r < vm::kNumRegs; ++r) {
      bool changed = false;
      for (u8 b = 0; b < 4; ++b) {
        o.bank[r][b] = sr.get(r, b);
        changed |= o.bank[r][b] != seed_[r][b];
      }
      if (!changed) continue;
      o.writes |= static_cast<u16>(1u << r);
      for (u8 b = 0; b < 4; ++b) o.reads |= reg_sources(sr.get(r, b));
    }
    for (u32 i = 0; i < kWindowBytes; ++i) {
      const ProvListId id = shadow(kWindow + i);
      if (id == window_[i]) continue;
      o.mem_written = true;
      o.reads |= reg_sources(id);
    }
    for (u32 i = 0; i < vm::kInsnSize; ++i) {
      const ProvListId id = shadow(kCode + i);
      if (id == kEmptyProv) continue;
      o.mem_written = true;
      o.reads |= reg_sources(id);
    }
    restore(o);
    return o;
  }

  ProvListId seed(u8 reg, u8 byte) const { return seed_[reg][byte]; }

 private:
  const ShadowRegisters& regs() const {
    return *engine_->registers(as_.cr3());
  }
  PAddr pa(VAddr va) const {
    return as_.translate(va, vm::AccessType::kRead, false).value();
  }
  ProvListId shadow(VAddr va) const { return engine_->shadow().get(pa(va)); }

  void taint(VAddr va, u32 lane) {
    const FlowTuple flow{0x0a000000 + lane, 1000, 0x0a0000ff, 2000};
    engine_->on_packet_to_guest({osi_.proc, &as_, va, 1}, flow);
  }

  /// Registers whose lane tags appear in `id`.
  u16 reg_sources(ProvListId id) const {
    u16 m = 0;
    for (const ProvTag& t : engine_->store().get(id)) {
      auto it = source_of_.find(t.key());
      if (it != source_of_.end() && it->second < kRegLanes) {
        m |= static_cast<u16>(1u << (it->second / 4));
      }
    }
    return m;
  }

  /// `movi r` then `ld32 r, [r]` of r's tag slot: r's byte b carries lane
  /// 4r+b alone (the cleared base adds no address dependency).
  void seed_reg(u8 r) {
    vm::InsnEvent ev;
    ev.cr3 = as_.cr3();
    ev.pc = kCode;
    ev.pc_pa = code_pa_;
    ev.insn = vm::Instruction{vm::Opcode::kMovi, r, 0, 0, 0};
    engine_->on_insn_retired(ev, as_);
    ev.insn = vm::Instruction{vm::Opcode::kLd32, r, r, 0, 0};
    const VAddr slot = kTags + 4u * r;
    ev.mem = vm::MemAccess{slot, pa(slot), 4, false};
    engine_->on_insn_retired(ev, as_);
    for (u8 b = 0; b < 4; ++b) seed_[r][b] = regs().get(r, b);
  }

  void restore(const Observed& o) {
    for (u8 r = 0; r < vm::kNumRegs; ++r) {
      if (o.writes & (1u << r)) seed_reg(r);
    }
    if (!o.mem_written) return;
    for (u32 i = 0; i < kWindowBytes; ++i) taint(kWindow + i, kRegLanes + i);
    engine_->on_kernel_write({osi_.proc, &as_, kCode, vm::kInsnSize});
    snapshot_window();
  }

  void snapshot_window() {
    for (u32 i = 0; i < kWindowBytes; ++i) window_[i] = shadow(kWindow + i);
  }

  vm::PhysMem mem_{1u << 20};
  vm::FrameAllocator frames_;
  vm::AddressSpace as_;
  vm::Interpreter interp_{mem_};
  PAddr code_pa_ = 0;
  SoloOsi osi_;
  std::unique_ptr<FarosEngine> engine_;
  std::map<u32, u32> source_of_;  // tag key -> lane
  ProvListId seed_[vm::kNumRegs][4] = {};
  ProvListId window_[kWindowBytes] = {};
};

TEST(TableI, EveryOpcodeAndRegisterTripleMatchesTheFootprint) {
  TableIHarness h;
  u32 opcodes = 0;
  for (u32 byte = 0; byte < 256; ++byte) {
    if (!vm::opcode_valid(static_cast<u8>(byte))) continue;
    ++opcodes;
    const auto op = static_cast<vm::Opcode>(byte);
    const bool zero_idiom_op =
        op == vm::Opcode::kXor || op == vm::Opcode::kSub;
    u32 failures = 0;
    for (u8 rd = 0; rd < vm::kNumRegs; ++rd) {
      for (u8 rs1 = 0; rs1 < vm::kNumRegs; ++rs1) {
        for (u8 rs2 = 0; rs2 < vm::kNumRegs; ++rs2) {
          const vm::Instruction insn{op, rd, rs1, rs2, 0};
          const vm::RegFootprint fp = vm::taint_footprint(insn);
          const TableIHarness::Observed o = h.retire(insn);
          u16 want_reads = fp.reads;
          u16 want_writes = fp.writes;
          if (op == vm::Opcode::kMov && rd == rs1) {
            // A self-copy leaves the bank as it was: the write it makes
            // cannot be told from no write.
            EXPECT_EQ(fp.reads, 1u << rd) << vm::disassemble(insn);
            EXPECT_EQ(fp.writes, 1u << rd) << vm::disassemble(insn);
            want_reads = want_writes = 0;
          }
          bool ok = o.reads == want_reads && o.writes == want_writes;
          if (vm::taint_inert(op)) {
            ok = ok && !o.mem_written && !o.shadow_moved;
          }
          // Table I's own word on two shapes, independent of the
          // footprint: xor/sub of a register with itself deletes rd, and
          // mov copies byte by byte.
          if (zero_idiom_op && rs1 == rs2) {
            ok = ok && o.writes == (1u << rd) && o.reads == 0;
            for (u8 b = 0; b < 4; ++b) {
              ok = ok && o.bank[rd][b] == kEmptyProv;
            }
          }
          if (op == vm::Opcode::kMov) {
            for (u8 b = 0; b < 4; ++b) {
              ok = ok && o.bank[rd][b] == h.seed(rs1, b);
            }
          }
          if (!ok && ++failures <= 8) {
            ADD_FAILURE() << vm::disassemble(insn) << ": reads " << o.reads
                          << " (footprint " << fp.reads << "), writes "
                          << o.writes << " (footprint " << fp.writes
                          << "), memory "
                          << (o.mem_written ? "written" : "untouched")
                          << ", shadow "
                          << (o.shadow_moved ? "moved" : "still");
          }
        }
      }
    }
    EXPECT_EQ(failures, 0u) << vm::opcode_name(op);
  }
  EXPECT_EQ(opcodes, 45u);
}

}  // namespace
}  // namespace faros::core
