#include "attacks/c2.h"

namespace faros::attacks {

void C2Server::on_outbound(os::Machine& m, const os::OutboundPacket& pkt) {
  if (pkt.flow.dst_ip != ip_ || pkt.flow.dst_port != port_) return;
  ++requests_seen_;
  received_.push_back(pkt.data);
  if (responses_.empty()) return;
  Bytes response = std::move(responses_.front());
  responses_.pop_front();
  // Reply on the reverse flow so the guest's connected socket accepts it.
  FlowTuple reply{ip_, port_, pkt.flow.src_ip, pkt.flow.src_port};
  if (m.inject_packet(reply, response)) ++responses_sent_;
}

}  // namespace faros::attacks
