// Attack-library builders: payload PIC property, program builders, C2
// scripting, dataset catalogues, the exhaustion guard, and the guest-byte
// fingerprint of the whole corpus.
#include <gtest/gtest.h>

#include <cstdio>

#include "attacks/corpus.h"
#include "attacks/datasets.h"
#include "attacks/payloads.h"
#include "attacks/programs.h"
#include "attacks/scenarios.h"
#include "core/provenance.h"
#include "vm/isa.h"

namespace faros::attacks {
namespace {

class PayloadBuild
    : public ::testing::TestWithParam<std::tuple<PayloadAction,
                                                 PayloadEnding, bool>> {};

TEST_P(PayloadBuild, AssemblesAndDecodes) {
  PayloadSpec spec;
  spec.action = std::get<0>(GetParam());
  spec.ending = std::get<1>(GetParam());
  spec.erase_self = std::get<2>(GetParam());
  auto blob = build_payload(spec);
  ASSERT_TRUE(blob.ok()) << blob.error().message;
  ASSERT_GE(blob.value().size(), vm::kInsnSize);
  // The entry instruction decodes.
  auto insn = vm::decode(ByteSpan(blob.value().data(), vm::kInsnSize));
  ASSERT_TRUE(insn.has_value());
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, PayloadBuild,
    ::testing::Combine(
        ::testing::Values(PayloadAction::kMessageBox,
                          PayloadAction::kKeylogger, PayloadAction::kCompute,
                          PayloadAction::kLinkedCompute),
        ::testing::Values(PayloadEnding::kExit, PayloadEnding::kRet,
                          PayloadEnding::kLoopForever),
        ::testing::Bool()));

TEST(Payload, IsPositionIndependent) {
  // The blob contains no absolute fixups: assembling the same program for
  // two different bases must produce identical bytes. build_payload
  // assembles at base 0; re-run it twice to confirm determinism, and check
  // no MOVI carries what looks like a base-relative pointer by executing
  // it at two addresses in the integration suite. Here: determinism.
  PayloadSpec spec;
  auto a = build_payload(spec);
  auto b = build_payload(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(Programs, AllBuildersProduceValidImages) {
  EXPECT_TRUE(build_idle_program("x.exe").ok());
  EXPECT_TRUE(build_helper_program().ok());
  EXPECT_TRUE(build_inject_client(InjectClientSpec{}).ok());
  InjectClientSpec self;
  self.target_name.clear();
  EXPECT_TRUE(build_inject_client(self).ok());
  auto payload = build_payload(PayloadSpec{});
  ASSERT_TRUE(payload.ok());
  EXPECT_TRUE(build_hollow_loader(payload.value(), paths::kSvchost).ok());
  EXPECT_TRUE(build_rat_program(RatSpec{}).ok());
  EXPECT_TRUE(build_jit_host("java.exe").ok());
  // Behaviour programs for every single behaviour.
  for (Behavior b :
       {Behavior::kIdle, Behavior::kRun, Behavior::kAudioRecord,
        Behavior::kFileTransfer, Behavior::kKeylogger,
        Behavior::kRemoteDesktop, Behavior::kUpload, Behavior::kDownload,
        Behavior::kRemoteShell}) {
    auto img = build_behavior_program("t.exe", {b});
    EXPECT_TRUE(img.ok()) << behavior_name(b);
  }
}

TEST(Programs, ImagesRoundTripThroughSerialization) {
  auto img = build_rat_program(RatSpec{});
  ASSERT_TRUE(img.ok());
  auto back = os::Image::deserialize(img.value().serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().blob, img.value().blob);
  EXPECT_EQ(back.value().entry_offset, img.value().entry_offset);
}

TEST(Datasets, Table3ShapeMatchesPaper) {
  auto workloads = table3_workloads();
  ASSERT_EQ(workloads.size(), 20u);
  int applets = 0, linking = 0, linking_applets = 0;
  for (const auto& w : workloads) {
    if (w.host == "java.exe") ++applets;
    if (w.linking) {
      ++linking;
      if (w.host == "java.exe") ++linking_applets;
    }
  }
  EXPECT_EQ(applets, 10);
  EXPECT_EQ(linking, 2);          // the two paper FPs
  EXPECT_EQ(linking_applets, 2);  // both are applets
}

TEST(Datasets, Table4ShapeMatchesPaper) {
  EXPECT_EQ(table4_families().size(), 17u);   // Table IV rows
  EXPECT_EQ(table4_benign().size(), 14u);     // benign block
  auto battery = table4_full_battery();
  EXPECT_EQ(battery.size(), 90u);             // expanded samples
  // All samples have at least one behaviour and unique names.
  std::set<std::string> names;
  for (const auto& s : battery) {
    EXPECT_FALSE(s.behaviors.empty()) << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
  }
  EXPECT_EQ(table5_apps().size(), 6u);        // Table V rows
}

TEST(C2Server, RespondsOncePerRequestInOrder) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  C2Server c2;
  c2.queue_response(Bytes{1});
  c2.queue_response(Bytes{2});

  // A guest socket sends twice to the attacker endpoint.
  auto& kernel = m.kernel();
  os::SocketId sid = kernel.net().create(1);
  ASSERT_TRUE(kernel.net().connect(sid, kAttackerIp, kAttackerPort).ok());
  const auto& out = kernel.net().outbound();
  (void)kernel.net().send(sid, Bytes{'a'}, 1);
  c2.on_outbound(m, out[0]);
  EXPECT_EQ(c2.requests_seen(), 1u);
  EXPECT_EQ(c2.responses_sent(), 1u);
  (void)kernel.net().send(sid, Bytes{'b'}, 2);
  (void)kernel.net().send(sid, Bytes{'c'}, 3);  // no response left for this
  c2.on_outbound(m, out[1]);
  c2.on_outbound(m, out[2]);
  EXPECT_EQ(c2.requests_seen(), 3u);
  EXPECT_EQ(c2.responses_sent(), 2u);
  ASSERT_EQ(c2.received().size(), 3u);
  EXPECT_EQ(c2.received()[0], (Bytes{'a'}));

  // Both responses are queued on the socket in order.
  Bytes buf(4);
  FlowTuple flow;
  auto n = kernel.net().read_rx(sid, buf, &flow);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(flow.src_ip, kAttackerIp);
  n = kernel.net().read_rx(sid, buf, &flow);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(buf[0], 2);
}

TEST(C2Server, IgnoresTrafficToOtherEndpoints) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  C2Server c2;
  c2.queue_response(Bytes{1});
  os::SocketId sid = m.kernel().net().create(1);
  ASSERT_TRUE(m.kernel().net().connect(sid, 0x08080808, 53).ok());
  (void)m.kernel().net().send(sid, Bytes{'x'}, 1);
  c2.on_outbound(m, m.kernel().net().outbound()[0]);
  EXPECT_EQ(c2.requests_seen(), 0u);
  EXPECT_EQ(c2.responses_sent(), 0u);
}

TEST(ProvStore, ExhaustionGuardDegradesGracefully) {
  core::ProvStore store(/*cap=*/64, /*max_lists=*/8);
  core::ProvListId id = store.intern({core::ProvTag::netflow(0)});
  // Manufacture far more unique lists than the bound allows.
  core::ProvListId last = id;
  for (u16 i = 1; i < 100; ++i) {
    last = store.append(id, core::ProvTag::process(i));
  }
  EXPECT_LE(store.size(), 8u);
  EXPECT_GT(store.saturated_ops(), 0u);
  // Saturated appends fall back to the base list — never a bogus id.
  EXPECT_EQ(last, id);
  // Existing lists still work.
  EXPECT_TRUE(store.contains_type(id, core::TagType::kNetflow));
}

TEST(Scenarios, NamesAreStable) {
  EXPECT_EQ(ReflectiveDllScenario(ReflectiveVariant::kMeterpreter).name(),
            "reflective_dll_inject");
  EXPECT_EQ(ReflectiveDllScenario(ReflectiveVariant::kReverseTcpDns).name(),
            "reverse_tcp_dns");
  EXPECT_EQ(ReflectiveDllScenario(ReflectiveVariant::kBypassUac).name(),
            "bypassuac_injection");
  EXPECT_EQ(HollowingScenario().name(), "process_hollowing");
  EXPECT_EQ(RatInjectionScenario("njrat").name(), "njrat-injection");
  EXPECT_EQ(DropperChainScenario().name(), "dropper_chain");
}

// 64-bit FNV-1a, folded over successive spans.
u64 fnv1a64(u64 h, ByteSpan data) {
  for (u8 b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

u64 fnv1a64(u64 h, std::string_view s) {
  return fnv1a64(h, ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size()));
}

// Every guest byte a corpus job puts in play: each VFS file that setup()
// leaves behind (path and bytes, in Vfs::list() order), then the recorded
// ReplayLog, which holds every C2 response and device input together with
// the retired-instruction position it was delivered at.
u64 job_fingerprint(const CorpusEntry& e) {
  u64 h = 0xcbf29ce484222325ull;
  auto sc = e.make();
  os::Machine m;
  EXPECT_TRUE(m.boot().ok()) << e.name;
  EXPECT_TRUE(sc->setup(m).ok()) << e.name;
  for (const std::string& path : m.kernel().vfs().list()) {
    auto data = m.kernel().vfs().read_all(path);
    EXPECT_TRUE(data.ok()) << e.name << " " << path;
    if (!data.ok()) continue;
    h = fnv1a64(h, path);
    h = fnv1a64(h, ByteSpan(data.value().data(), data.value().size()));
  }
  auto sc2 = e.make();
  auto rec = record_run(*sc2);
  EXPECT_TRUE(rec.ok()) << e.name;
  if (rec.ok()) {
    const Bytes log = rec.value().log.serialize();
    h = fnv1a64(h, ByteSpan(log.data(), log.size()));
  }
  return h;
}

// A refactor of the guest-code builders must leave every image, every C2
// response, every device input and every ReplayLog position unchanged.
// On a mismatch the per-job hashes name the jobs that moved.
TEST(CorpusFingerprint, GuestBytesAreUnchanged) {
  constexpr u64 kExpected = 0x652545769796afe8ull;
  std::vector<CorpusEntry> jobs = full_corpus();
  for (auto& e : policy_corpus()) jobs.push_back(std::move(e));
  u64 combined = 0;
  std::string per_job;
  for (const CorpusEntry& e : jobs) {
    const u64 h = job_fingerprint(e);
    combined = hash_combine(combined, h);
    char line[96];
    std::snprintf(line, sizeof line, "  %016llx %s\n",
                  static_cast<unsigned long long>(h), e.name.c_str());
    per_job += line;
  }
  EXPECT_EQ(combined, kExpected) << "combined 0x" << std::hex << combined
                                 << "; per job:\n" << per_job;
}

}  // namespace
}  // namespace faros::attacks
