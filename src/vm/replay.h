// Deterministic record/replay — PANDA's signature capability and the way
// FAROS is used in practice: record the malware run once, then replay it
// under the (expensive) taint plugin.
//
// The whole machine is deterministic except for external inputs, so the log
// only stores those: each event carries the global retired-instruction index
// at which it was delivered. Replaying the log through an identical initial
// machine reproduces the run bit-for-bit.
#pragma once

#include <vector>

#include "common/bytesio.h"
#include "common/flow.h"
#include "common/result.h"
#include "common/types.h"

namespace faros::vm {

enum class EventKind : u8 {
  kPacketIn = 1,    // network packet arriving at a guest socket
  kDeviceInput = 2, // bytes from a character device (keyboard, mic, screen)
};

struct ReplayEvent {
  u64 instr_index = 0;  // deliver when the global counter reaches this
  EventKind kind = EventKind::kPacketIn;
  u32 channel = 0;      // kPacketIn: destination port; kDeviceInput: device id
  FlowTuple flow;       // valid for kPacketIn
  Bytes payload;

  bool operator==(const ReplayEvent&) const = default;
};

class ReplayLog {
 public:
  void append(ReplayEvent ev) { events_.push_back(std::move(ev)); }
  const std::vector<ReplayEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  Bytes serialize() const;
  /// Parses a serialized log; rejects a truncated log and any event kind
  /// other than kPacketIn and kDeviceInput.
  static Result<ReplayLog> deserialize(ByteSpan data);

  bool operator==(const ReplayLog&) const = default;

 private:
  std::vector<ReplayEvent> events_;
};

}  // namespace faros::vm
