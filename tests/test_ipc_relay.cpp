// Loopback (guest-to-guest) taint propagation: the network stack carries
// provenance across sockets via per-segment shadows, so a payload relayed
// through an internal service still carries its C2 origin when it runs.
#include <gtest/gtest.h>

#include "attacks/scenarios.h"
#include "core/report.h"

namespace faros {
namespace {

TEST(IpcRelay, LoopbackSendDeliversToBoundSocket) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  auto& net = m.kernel().net();
  os::SocketId server = net.create(1);
  ASSERT_TRUE(net.bind(server, 9000).ok());
  os::SocketId client = net.create(2);
  ASSERT_TRUE(net.connect(client, net.guest_ip(), 9000).ok());
  auto pkt = net.send(client, Bytes{1, 2, 3}, 42);
  ASSERT_TRUE(pkt.ok());
  EXPECT_TRUE(pkt.value().loopback);
  EXPECT_NE(pkt.value().segment_id, 0u);
  EXPECT_EQ(net.rx_available(server).value_or(0), 3u);

  Bytes buf(8);
  FlowTuple flow;
  u64 seg = 0;
  u32 off = 9;
  auto n = net.read_rx(server, buf, &flow, &seg, &off);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 3u);
  EXPECT_EQ(seg, pkt.value().segment_id);
  EXPECT_EQ(off, 0u);
  EXPECT_EQ(flow.src_ip, net.guest_ip());
  EXPECT_EQ(flow.dst_port, 9000);
}

TEST(IpcRelay, PartialLoopbackReadsKeepSegmentOffsets) {
  os::Machine m;
  ASSERT_TRUE(m.boot().ok());
  auto& net = m.kernel().net();
  os::SocketId server = net.create(1);
  ASSERT_TRUE(net.bind(server, 9000).ok());
  os::SocketId client = net.create(2);
  ASSERT_TRUE(net.connect(client, net.guest_ip(), 9000).ok());
  ASSERT_TRUE(net.send(client, Bytes{1, 2, 3, 4, 5}, 1).ok());

  Bytes buf(2);
  FlowTuple flow;
  u64 seg = 0;
  u32 off = 99;
  ASSERT_EQ(net.read_rx(server, buf, &flow, &seg, &off).value_or(0), 2u);
  EXPECT_EQ(off, 0u);
  ASSERT_EQ(net.read_rx(server, buf, &flow, &seg, &off).value_or(0), 2u);
  EXPECT_EQ(off, 2u);  // shadow offset advances with consumption
  ASSERT_EQ(net.read_rx(server, buf, &flow, &seg, &off).value_or(0), 1u);
  EXPECT_EQ(off, 4u);
}

TEST(IpcRelay, ProvenanceSurvivesTheRelayAndAttackIsFlagged) {
  attacks::IpcRelayScenario sc;
  auto run = attacks::analyze(sc);
  ASSERT_TRUE(run.ok()) << run.error().message;
  const auto& r = run.value();

  // The relayed payload actually ran in the backend.
  bool announced = false;
  for (const auto& line : r.recorded.console) {
    if (line.find("relayed payload in backend.exe") != std::string::npos) {
      announced = true;
    }
  }
  EXPECT_TRUE(announced);
  EXPECT_TRUE(r.recorded.traps.empty()) << r.recorded.traps[0];
  ASSERT_TRUE(r.flagged) << r.report;

  // The chain must span: C2 netflow, frontend, loopback netflow, backend.
  const core::Finding* netflow_finding = nullptr;
  for (const auto& f : r.findings) {
    if (f.policy == "netflow-export-confluence") netflow_finding = &f;
  }
  ASSERT_NE(netflow_finding, nullptr);
  EXPECT_EQ(netflow_finding->proc.name, "backend.exe");
  EXPECT_NE(r.report.find("frontend.exe"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("backend.exe"), std::string::npos) << r.report;
  EXPECT_NE(r.report.find("169.254.26.161:4444"), std::string::npos)
      << "C2 origin lost across the loopback relay:\n" + r.report;
  // Two distinct netflows appear (C2 and loopback).
  size_t first = r.report.find("NetFlow");
  size_t second = r.report.find("NetFlow", first + 1);
  EXPECT_NE(second, std::string::npos) << r.report;
}

}  // namespace
}  // namespace faros
