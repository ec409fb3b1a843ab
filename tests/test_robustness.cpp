// Robustness: hostile/garbage inputs must never crash the host — fuzz-ish
// image parsing, random guest syscalls, random replay logs, mutated policy
// files, mutated faros_triage argv, and long-run shadow hygiene across
// heavy process churn.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "attacks/datasets.h"
#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/rules.h"
#include "farm/triage_cli.h"
#include "os/machine.h"
#include "os/runtime.h"

namespace faros {
namespace {

TEST(Robustness, RandomBlobsNeverCrashImageParsingOrSpawn) {
  Rng rng(777);
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  int spawned_ok = 0;
  for (int i = 0; i < 300; ++i) {
    Bytes blob = rng.bytes(rng.below(512));
    // Half the time, make it look almost valid (correct magic).
    if (rng.chance(0.5) && blob.size() >= 8) {
      blob[0] = 0x32;
      blob[1] = 0x33;
      blob[2] = 0x58;
      blob[3] = 0x53;
      blob[4] = 1;
      blob[5] = 0;
      blob[6] = 0;
      blob[7] = 0;
    }
    std::string path = "C:/fuzz/" + std::to_string(i);
    m.kernel().vfs().create(path, blob);
    auto pid = m.kernel().spawn(path);
    if (pid.ok()) ++spawned_ok;
  }
  // Random bytes essentially never form a valid image.
  EXPECT_EQ(spawned_ok, 0);
  EXPECT_EQ(m.kernel().live_count(), 0u);
}

TEST(Robustness, RandomSyscallsNeverCrashKernel) {
  // Hostile arguments: null, unmapped user pages, kernel-half pages (the
  // module directory, ntdll, the top page), the u32 limit as a length, and
  // small values that name a handle (4) and the two fuzzing processes
  // (pids 100, 101). None points at an image path, so NtCreateProcess
  // never starts a process.
  const std::vector<u32> args{0,
                              0x1000,
                              os::kUserStackTop,
                              os::KernelLayout::kModuleDir,
                              os::KernelLayout::kNtdllBase,
                              0xfffff000,
                              0xffffffff,
                              4,
                              100,
                              101};
  // Every row of the table, and every gap in the numbering.
  std::vector<u32> numbers{0, 16, 19, 26, 29, 39, 47, 49, 60, 0xffffffff};
  for (const os::SyscallRow& row : os::syscall_table()) {
    numbers.push_back(static_cast<u32>(row.number));
  }
  // Reads the module count through the user mapping of the kernel half.
  os::ImageBuilder probe("probe.exe", os::kUserImageBase);
  {
    auto& a = probe.asm_();
    a.label("_start");
    attacks::emit_sys(a, os::Sys::kNtGetModuleDirectory);
    a.ld32(vm::Reg::R1, vm::Reg::R0, 0);
    attacks::emit_sys(a, os::Sys::kNtExit);
  }
  const Bytes probe_img = probe.build().value().serialize();

  for (u64 seed = 1; seed <= 64; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    os::ImageBuilder ib("fuzz.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    for (int i = 0; i < 48; ++i) {
      for (vm::Reg r : {vm::Reg::R1, vm::Reg::R2, vm::Reg::R3, vm::Reg::R4}) {
        a.movi(r, args[rng.below(args.size())]);
      }
      a.movi(vm::Reg::R0, numbers[rng.below(numbers.size())]);
      a.syscall_();
    }
    a.jmp("_start");
    auto img = ib.build();
    ASSERT_TRUE(img.ok());

    os::Machine m;
    ASSERT_TRUE(m.boot().ok());
    os::Kernel& k = m.kernel();
    k.vfs().create("C:/fuzz.exe", img.value().serialize());
    ASSERT_TRUE(k.spawn("C:/fuzz.exe").ok());
    ASSERT_TRUE(k.spawn("C:/fuzz.exe").ok());
    m.run(20000);

    u32 live = 0;
    for (const osi::ProcessInfo& info : k.process_list()) {
      live += k.find(info.pid)->alive() ? 1 : 0;
    }
    EXPECT_EQ(k.live_count(), live);

    // The kernel still serves a fresh process.
    for (const osi::ProcessInfo& info : k.process_list()) {
      k.terminate(*k.find(info.pid), 0);
    }
    k.vfs().create("C:/probe.exe", probe_img);
    auto pid = k.spawn("C:/probe.exe");
    ASSERT_TRUE(pid.ok());
    m.run(1000);
    EXPECT_EQ(k.find(pid.value())->exit_code, k.modules().size());
    EXPECT_EQ(k.live_count(), 0u);
  }
}

TEST(Robustness, MutatedReplayLogsNeverCrashDeserialization) {
  // Start from a real log, then flip random bytes.
  attacks::ReflectiveDllScenario sc(attacks::ReflectiveVariant::kMeterpreter);
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok());
  Bytes wire = rec.value().log.serialize();
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    Bytes mutated = wire;
    u32 flips = 1 + static_cast<u32>(rng.below(8));
    for (u32 f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<u8>(rng.next_u32());
    }
    auto log = vm::ReplayLog::deserialize(mutated);  // ok or error, no crash
    if (log.ok()) {
      for (const vm::ReplayEvent& ev : log.value().events()) {
        EXPECT_TRUE(ev.kind == vm::EventKind::kPacketIn ||
                    ev.kind == vm::EventKind::kDeviceInput);
      }
      // A mutated-but-parseable log must still replay without crashing the
      // machine (events may simply be dropped or misdelivered).
      auto rep = attacks::replay_run(sc, log.value(), nullptr, {});
      (void)rep;
    }
  }
  SUCCEED();
}

TEST(Robustness, MutatedPolicyFilesNeverCrashParsing) {
  // The shipped policy files, mutated by byte flips, inserts (biased to
  // JSON punctuation and escapes) and truncations. Every mutant the parser
  // accepts must survive a round trip through ruleset_json unchanged.
  const char kInserts[] = "{}[]\",:\\ -=<>0123456789azu";
  for (const char* name : {"default.json", "multistage.json"}) {
    std::ifstream in(std::string(FAROS_POLICY_DIR) + "/" + name,
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string file = buf.str();
    ASSERT_TRUE(core::parse_ruleset_json(file).ok()) << name;
    Rng rng(2027);
    u32 accepted = 0;
    for (int i = 0; i < 3000; ++i) {
      std::string text = file;
      const u32 edits = 1 + static_cast<u32>(rng.below(4));
      for (u32 e = 0; e < edits && !text.empty(); ++e) {
        const size_t at = rng.below(text.size());
        switch (rng.below(3)) {
          case 0:
            text[at] = static_cast<char>(text[at] ^ (1 + rng.below(255)));
            break;
          case 1:
            text.insert(at, 1,
                        rng.chance(0.5)
                            ? kInserts[rng.below(sizeof(kInserts) - 1)]
                            : static_cast<char>(rng.next_u32()));
            break;
          default:
            text.resize(at);
            break;
        }
      }
      auto rules = core::parse_ruleset_json(text);  // ok or error, no crash
      if (!rules.ok()) continue;
      ++accepted;
      const std::string round = core::ruleset_json(rules.value());
      auto back = core::parse_ruleset_json(round);
      ASSERT_TRUE(back.ok()) << name << " mutant " << i << ": "
                             << back.error().message << "\n" << text;
      EXPECT_EQ(back.value(), rules.value()) << name << " mutant " << i;
      EXPECT_EQ(core::ruleset_json(back.value()), round) << name;
    }
    // Whitespace and string-content edits keep some mutants parseable.
    EXPECT_GT(accepted, 0u) << name;
  }
}

TEST(Robustness, MutatedTriageArgvNeverCrashParsing) {
  // A valid faros_triage argv, mutated by dropped, duplicated and swapped
  // tokens, flags used as values, and values that do not fit their option.
  // The parser must neither crash nor throw, and a rejection must say why.
  const std::vector<std::string> valid = {
      "--workers", "4", "--jobs", "20", "--filter", "jit", "--category",
      "injection", "--timeout-ms", "1234", "--budget", "99", "--out",
      "r.jsonl", "--metrics", "m.jsonl", "--graph-out", "graphs",
      "--policies", "a.json,b.json", "--quiet"};
  ASSERT_TRUE(farm::parse_triage_cli(valid).ok());
  const char* kFlags[] = {"--workers", "--jobs", "--timeout-ms", "--budget",
                          "--filter", "--policies", "--out", "--quiet",
                          "--list", "--help"};
  const char* kValues[] = {"-1", "", "0x10", "18446744073709551616",
                           "4294967296", "+3", " 7", "0", ",",
                           "a/x.json,b/x.json"};
  Rng rng(4099);
  u32 accepted = 0, rejected = 0;
  for (int i = 0; i < 4000; ++i) {
    std::vector<std::string> args = valid;
    const u32 edits = 1 + static_cast<u32>(rng.below(4));
    for (u32 e = 0; e < edits && !args.empty(); ++e) {
      const size_t at = rng.below(args.size());
      switch (rng.below(5)) {
        case 0: args.erase(args.begin() + static_cast<long>(at)); break;
        case 1: {
          std::string dup = args[at];
          args.insert(args.begin() + static_cast<long>(at), std::move(dup));
          break;
        }
        case 2: std::swap(args[at], args[rng.below(args.size())]); break;
        case 3: args[at] = kFlags[rng.below(std::size(kFlags))]; break;
        default: args[at] = kValues[rng.below(std::size(kValues))]; break;
      }
    }
    std::string joined;
    for (const std::string& a : args) joined += " '" + a + "'";
    farm::TriageCliResult r;
    EXPECT_NO_THROW(r = farm::parse_triage_cli(args)) << joined;
    if (r.ok()) {
      ++accepted;
    } else {
      ++rejected;
      // The message names what it rejects: the option, or the token.
      EXPECT_TRUE(r.error.rfind("--", 0) == 0 ||
                  r.error.rfind("unknown option '", 0) == 0)
          << r.error << " <-" << joined;
    }
  }
  // Both outcomes occur: the mutants exercise the accept and reject paths.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Robustness, SequentialBatteryOnOneMachineKeepsShadowClean) {
  // Run a dozen behaviour samples on ONE machine under ONE engine: frame
  // recycling across process churn must keep stale taint from accumulating
  // and must never produce a false positive.
  os::Machine m;
  core::FarosEngine engine(m.kernel(), core::Options{});
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  ASSERT_TRUE(m.boot().ok());
  m.kernel().vfs().create(
      attacks::paths::kHelper,
      attacks::build_helper_program().value().serialize());
  m.kernel().vfs().create(attacks::paths::kSecretDoc, Bytes(32, 's'));
  m.kernel().vfs().create(attacks::paths::kReportDoc, Bytes(32, 'r'));

  auto samples = attacks::table4_families();
  u64 shadow_after_first = 0;
  for (size_t i = 0; i < 12; ++i) {
    const auto& spec = samples[i % samples.size()];
    std::string name =
        "churn" + std::to_string(i) + "-" + spec.family + ".exe";
    auto img = attacks::build_behavior_program(name, spec.behaviors);
    ASSERT_TRUE(img.ok());
    std::string path = "C:/churn/" + name;
    m.kernel().vfs().create(path, img.value().serialize());

    // Feed devices and the C2 inline (no scripted source: push upfront).
    for (attacks::Behavior b : spec.behaviors) {
      u32 dev = 0;
      u32 chunks = attacks::behavior_device_chunks(b, &dev);
      for (u32 c = 0; c < chunks; ++c) {
        m.inject_device(dev, Bytes(16, static_cast<u8>('a' + c)));
      }
    }
    auto pid = m.kernel().spawn(path);
    ASSERT_TRUE(pid.ok());
    // Answer network requests as they appear.
    class Responder : public os::EventSource {
     public:
      void on_outbound(os::Machine& mm,
                       const os::OutboundPacket& pkt) override {
        if (pkt.loopback) return;
        FlowTuple reply{pkt.flow.dst_ip, pkt.flow.dst_port, pkt.flow.src_ip,
                        pkt.flow.src_port};
        mm.inject_packet(reply, Bytes(64, 0x5a));
      }
    };
    static Responder responder;
    m.set_event_source(&responder);
    m.run(500000);
    EXPECT_EQ(m.kernel().live_count(), 0u) << name;
    if (i == 0) shadow_after_first = engine.shadow().tainted_bytes();
  }
  EXPECT_FALSE(engine.flagged()) << engine.report();
  // Shadow residency stays bounded: dead processes' frames were scrubbed,
  // so twelve runs cost at most a few times one run (file shadows persist
  // by design), not twelve times.
  EXPECT_LT(engine.shadow().tainted_bytes(), 6 * shadow_after_first + 4096);
}

}  // namespace
}  // namespace faros
