// Quickstart: the FAROS public API in ~80 lines.
//
//  1. Build a tiny guest machine (the whole-system emulator + WinSim OS).
//  2. Attach the FAROS DIFT-provenance engine.
//  3. Run a guest program that receives network data and stores it.
//  4. Ask FAROS for the provenance of the touched bytes.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "attacks/guest_common.h"
#include "core/engine.h"
#include "core/report.h"
#include "os/machine.h"

using namespace faros;
using vm::Reg;

int main() {
  // --- 1. machine + FAROS plugin -------------------------------------
  os::Machine machine;
  core::FarosEngine faros(machine.kernel(), core::Options{});
  machine.attach_cpu_plugin(&faros);  // instruction-level DIFT
  machine.add_monitor(&faros);        // semantic tag insertion
  if (auto r = machine.boot(); !r.ok()) {
    std::fprintf(stderr, "boot failed: %s\n", r.error().message.c_str());
    return 1;
  }

  // --- 2. a guest program: recv 16 bytes, copy them to a second buffer
  os::ImageBuilder ib("demo.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  attacks::emit_connect(a, attacks::kAttackerIp, attacks::kAttackerPort);
  attacks::emit_send_label(a, "hello", 5);
  a.movi_label(Reg::R9, "inbox");
  attacks::emit_recv(a, Reg::R9, 16);
  // Guest-code copy: taint travels with every byte.
  a.movi_label(Reg::R1, "copy");
  a.movi(Reg::R2, 0);
  a.label("loop");
  a.cmpi(Reg::R2, 16);
  a.bgeu("done");
  a.add(Reg::R3, Reg::R9, Reg::R2);
  a.ld8(Reg::R4, Reg::R3, 0);
  a.add(Reg::R3, Reg::R1, Reg::R2);
  a.st8(Reg::R3, 0, Reg::R4);
  a.addi(Reg::R2, Reg::R2, 1);
  a.jmp("loop");
  a.label("done");
  a.label("spin");
  attacks::emit_sys(a, os::Sys::kNtYield);
  a.jmp("spin");
  a.align(8);
  a.label("hello");
  a.data_str("hello", false);
  a.align(8);
  a.label("inbox");
  a.zeros(16);
  a.label("copy");
  a.zeros(16);
  auto image = ib.build();
  machine.kernel().vfs().create("C:/demo.exe", image.value().serialize());
  auto pid = machine.kernel().spawn("C:/demo.exe");

  // --- 3. a scripted remote peer answers the hello with 16 bytes ------
  class Peer : public os::EventSource {
   public:
    void on_outbound(os::Machine& m, const os::OutboundPacket& pkt) override {
      FlowTuple reply{pkt.flow.dst_ip, pkt.flow.dst_port, pkt.flow.src_ip,
                      pkt.flow.src_port};
      Bytes secret(16);
      for (int i = 0; i < 16; ++i) secret[i] = static_cast<u8>(0x41 + i);
      m.inject_packet(reply, secret);
    }
  } peer;
  machine.set_event_source(&peer);
  machine.run(100'000);

  // --- 4. query provenance --------------------------------------------
  os::Process* proc = machine.kernel().find(pid.value());
  auto copy_off = ib.asm_().label_offset("copy");
  VAddr copy_va = os::kUserImageBase + copy_off.value();

  core::ProvListId id = faros.prov_at(proc->as, copy_va);
  std::printf("provenance of copied byte at 0x%08x:\n  %s\n", copy_va,
              core::render_chain(faros.store(), faros.maps(), id).c_str());
  std::printf("\ntainted bytes in the whole system: %llu\n",
              static_cast<unsigned long long>(faros.shadow().tainted_bytes()));
  std::printf("instructions analysed: %llu\n",
              static_cast<unsigned long long>(faros.stats().insns_seen));
  std::printf("in-memory injection findings: %zu (expected 0 — this demo "
              "is benign)\n",
              faros.findings().size());
  return 0;
}
