// Scripted remote peer (the "attacker machine" / remote service): watches
// the guest's outbound traffic and answers each packet sent to its endpoint
// with the next queued response. In record mode every injected packet lands
// in the replay log, so the whole exchange replays deterministically.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "attacks/guest_common.h"
#include "os/machine.h"

namespace faros::attacks {

class C2Server : public os::EventSource {
 public:
  explicit C2Server(u32 ip = kAttackerIp, u16 port = kAttackerPort)
      : ip_(ip), port_(port) {}

  /// Queues a response; consumed one per guest packet addressed to us.
  void queue_response(Bytes data) { responses_.push_back(std::move(data)); }

  void on_outbound(os::Machine& m, const os::OutboundPacket& pkt) override;

  u32 requests_seen() const { return requests_seen_; }
  u32 responses_sent() const { return responses_sent_; }
  /// Payload bytes the guest uploaded to us (exfil observation).
  const std::vector<Bytes>& received() const { return received_; }

 private:
  u32 ip_;
  u16 port_;
  std::deque<Bytes> responses_;
  std::vector<Bytes> received_;
  u32 requests_seen_ = 0;
  u32 responses_sent_ = 0;
};

/// Several scripted endpoints as one event source. Multi-stage malware
/// pulls different artefacts (payload, key, config) from different
/// servers; each stage keeps its own endpoint and response queue, so the
/// exchanges stay independent inside one recording.
class MultiC2 final : public os::EventSource {
 public:
  void add(std::unique_ptr<C2Server> server) {
    servers_.push_back(std::move(server));
  }

  void on_outbound(os::Machine& m, const os::OutboundPacket& pkt) override {
    for (auto& s : servers_) s->on_outbound(m, pkt);
  }

 private:
  std::vector<std::unique_ptr<C2Server>> servers_;
};

}  // namespace faros::attacks
