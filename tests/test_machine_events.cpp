// Machine event plumbing: recording semantics (dropped packets are not
// logged), replay fast-forward for blocked guests, device-event replay,
// and the contrast case where a *disk-touching* attack IS visible to the
// event-based baseline.
#include <gtest/gtest.h>

#include "attacks/guest_common.h"
#include "attacks/scenarios.h"
#include "baselines/cuckoo.h"
#include "os/machine.h"

namespace faros::os {
namespace {

using attacks::emit_sys;
using vm::Reg;

Image make_recv_exit_program() {
  ImageBuilder ib("recv.exe", kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  attacks::emit_connect(a, attacks::kAttackerIp, attacks::kAttackerPort);
  a.movi_label(Reg::R9, "buf");
  attacks::emit_recv(a, Reg::R9, 16);
  a.mov(Reg::R1, Reg::R0);
  emit_sys(a, Sys::kNtExit);
  a.align(8);
  a.label("buf");
  a.zeros(16);
  auto img = ib.build();
  EXPECT_TRUE(img.ok());
  return img.value();
}

TEST(MachineEvents, DroppedPacketsAreNotRecorded) {
  Machine m;
  ASSERT_TRUE(m.boot().ok());
  // No socket exists: injection must report failure and log nothing.
  FlowTuple flow{1, 2, 3, 4};
  EXPECT_FALSE(m.inject_packet(flow, Bytes{1, 2, 3}));
  EXPECT_TRUE(m.recording().empty());
  // Device injections are always recorded (queues are unconditional).
  m.inject_device(1, Bytes{9});
  EXPECT_EQ(m.recording().size(), 1u);
}

TEST(MachineEvents, AcceptedPacketIsRecordedWithInstructionIndex) {
  Machine m;
  ASSERT_TRUE(m.boot().ok());
  m.kernel().vfs().create("C:/recv.exe",
                          make_recv_exit_program().serialize());
  ASSERT_TRUE(m.kernel().spawn("C:/recv.exe").ok());
  m.run(20000);  // until blocked on recv

  FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                  m.kernel().net().guest_ip(), 49162};
  ASSERT_TRUE(m.inject_packet(reply, Bytes{1, 2, 3, 4, 5}));
  ASSERT_EQ(m.recording().size(), 1u);
  const vm::ReplayEvent& ev = m.recording().events()[0];
  EXPECT_EQ(ev.kind, vm::EventKind::kPacketIn);
  EXPECT_EQ(ev.instr_index, m.kernel().interp().instr_count());
  EXPECT_EQ(ev.flow, reply);
  EXPECT_EQ(ev.payload.size(), 5u);
}

TEST(MachineEvents, ReplayFastForwardsToEventsWhenEverythingBlocks) {
  // Build a replay log by hand whose event index is far beyond what the
  // guest can reach while blocked: replay must fast-forward and deliver.
  vm::ReplayLog log;
  {
    Machine rec;
    ASSERT_TRUE(rec.boot().ok());
    rec.kernel().vfs().create("C:/recv.exe",
                              make_recv_exit_program().serialize());
    ASSERT_TRUE(rec.kernel().spawn("C:/recv.exe").ok());
    rec.run(20000);
    FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                    rec.kernel().net().guest_ip(), 49162};
    ASSERT_TRUE(rec.inject_packet(reply, Bytes{7, 7, 7}));
    rec.run(20000);
    log = rec.recording();
    ASSERT_EQ(rec.kernel().live_count(), 0u);
  }
  // Perturb the event index upward: the guest will be blocked long before.
  vm::ReplayLog shifted;
  for (vm::ReplayEvent ev : log.events()) {
    ev.instr_index += 1'000'000;
    shifted.append(ev);
  }

  Machine rep;
  ASSERT_TRUE(rep.boot().ok());
  rep.kernel().vfs().create("C:/recv.exe",
                            make_recv_exit_program().serialize());
  auto pid = rep.kernel().spawn("C:/recv.exe");
  ASSERT_TRUE(pid.ok());
  rep.load_replay(shifted);
  auto stats = rep.run(5'000'000);
  EXPECT_TRUE(stats.all_exited);  // fast-forward delivered the packet
  EXPECT_EQ(rep.kernel().find(pid.value())->exit_code, 3u);
}

TEST(MachineEvents, DeviceEventsReplayDeterministically) {
  attacks::HollowingScenario sc;  // consumes keyboard input
  auto rec = attacks::record_run(sc);
  ASSERT_TRUE(rec.ok());
  // The preloaded keystrokes are in the log.
  int device_events = 0;
  for (const auto& ev : rec.value().log.events()) {
    if (ev.kind == vm::EventKind::kDeviceInput) ++device_events;
  }
  EXPECT_EQ(device_events, 3);
  // And the keylogger stole them identically on replay: the log file
  // contents match across record and replay.
  auto rep = attacks::replay_run(sc, rec.value().log, nullptr, {});
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.value().console, rec.value().console);
}

TEST(MachineEvents, DiskTouchingDropperIsVisibleToEventBaseline) {
  // Contrast with the in-memory-only attacks: the dropper writes an
  // executable to disk — exactly the artifact an event-based sandbox DOES
  // catch (and why attackers moved to in-memory injection).
  attacks::DropperChainScenario sc;
  Machine m;
  baselines::CuckooSandboxSim cuckoo;
  m.add_monitor(&cuckoo);
  ASSERT_TRUE(m.boot().ok());
  auto source = sc.make_source();
  m.set_event_source(source.get());
  ASSERT_TRUE(sc.setup(m).ok());
  m.run(sc.budget());
  EXPECT_TRUE(cuckoo.behavioral_verdict());  // dropped .exe observed
}

TEST(MachineEvents, BlockedSyscallIsObservedAndCountedOnce) {
  // The receiver waits in NtRecv while a spinner keeps rounds going; every
  // round retries the call, but the trace and the counter see it once.
  Machine m;
  baselines::CuckooSandboxSim cuckoo;
  m.add_monitor(&cuckoo);
  ASSERT_TRUE(m.boot().ok());
  ImageBuilder spin("spin.exe", kUserImageBase);
  spin.asm_().label("_start");
  emit_sys(spin.asm_(), Sys::kNtYield);
  spin.asm_().jmp("_start");
  m.kernel().vfs().create("C:/spin.exe", spin.build().value().serialize());
  m.kernel().vfs().create("C:/recv.exe",
                          make_recv_exit_program().serialize());
  auto pid = m.kernel().spawn("C:/recv.exe");
  ASSERT_TRUE(pid.ok());
  ASSERT_TRUE(m.kernel().spawn("C:/spin.exe").ok());

  auto recvs = [&] {
    size_t n = 0;
    for (const auto& s : cuckoo.syscalls()) n += s.name == "NtRecv" ? 1 : 0;
    return n;
  };
  const RunStats waiting = m.run(30000);
  ASSERT_EQ(m.kernel().find(pid.value())->state, ProcState::kBlocked);
  EXPECT_GT(waiting.scheduling_rounds, 1000u);
  EXPECT_EQ(recvs(), 1u);
  EXPECT_EQ(m.kernel().syscall_count(), cuckoo.syscalls().size());

  FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                  m.kernel().net().guest_ip(), 49162};
  ASSERT_TRUE(m.inject_packet(reply, Bytes{7, 7}));
  m.run(30000);
  EXPECT_EQ(m.kernel().find(pid.value())->exit_code, 2u);
  EXPECT_EQ(recvs(), 1u);
  EXPECT_EQ(m.kernel().syscall_count(), cuckoo.syscalls().size());
}

TEST(MachineEvents, SourceGetsEachOutboundPacketOnceInSendOrder) {
  // Sends "a" and "b", blocks in NtRecv, then sends "c" and "d" and exits.
  ImageBuilder ib("chatty.exe", kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  attacks::emit_connect(a, attacks::kAttackerIp, attacks::kAttackerPort);
  for (const char* label : {"a", "b"}) {
    attacks::emit_send_label(a, label, 1);
    emit_sys(a, Sys::kNtYield);
  }
  a.movi_label(Reg::R9, "buf");
  attacks::emit_recv(a, Reg::R9, 4);
  for (const char* label : {"c", "d"}) {
    attacks::emit_send_label(a, label, 1);
    emit_sys(a, Sys::kNtYield);
  }
  attacks::emit_exit(a, 0);
  a.align(8);
  for (const char* label : {"a", "b", "c", "d"}) {
    a.label(label);
    a.data_str(label, false);
    a.align(8);
  }
  a.label("buf");
  a.zeros(8);

  /// Logs each packet it is handed and what the machine looked like then.
  struct Tap : EventSource {
    void on_outbound(Machine& m, const OutboundPacket& pkt) override {
      const auto& out = m.kernel().net().outbound();
      // The packet is the newest one, handed over at the top of the round
      // right after the send.
      EXPECT_EQ(&pkt, &out.back());
      EXPECT_EQ(pkt.instr_index, m.kernel().interp().instr_count());
      seen.push_back(std::string(pkt.data.begin(), pkt.data.end()));
    }
    std::vector<std::string> seen;
  } tap;

  Machine m;
  ASSERT_TRUE(m.boot().ok());
  m.kernel().vfs().create("C:/chatty.exe", ib.build().value().serialize());
  auto pid = m.kernel().spawn("C:/chatty.exe");
  ASSERT_TRUE(pid.ok());
  m.set_event_source(&tap);
  const RunStats first = m.run(50000);
  ASSERT_TRUE(first.deadlocked);
  EXPECT_EQ(tap.seen, (std::vector<std::string>{"a", "b"}));

  FlowTuple reply{attacks::kAttackerIp, attacks::kAttackerPort,
                  m.kernel().net().guest_ip(), 49162};
  ASSERT_TRUE(m.inject_packet(reply, Bytes{1}));
  const RunStats second = m.run(50000);
  ASSERT_TRUE(second.all_exited);
  EXPECT_EQ(tap.seen, (std::vector<std::string>{"a", "b", "c", "d"}));
  EXPECT_EQ(m.kernel().net().outbound().size(), 4u);
}

}  // namespace
}  // namespace faros::os
