#include "vm/replay.h"

namespace faros::vm {

namespace {
constexpr u32 kMagic = 0x464c4f47;  // "FLOG"
constexpr u32 kVersion = 1;
}  // namespace

Bytes ReplayLog::serialize() const {
  ByteWriter w;
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_u32(static_cast<u32>(events_.size()));
  for (const ReplayEvent& ev : events_) {
    w.put_u64(ev.instr_index);
    w.put_u8(static_cast<u8>(ev.kind));
    w.put_u32(ev.channel);
    w.put_u32(ev.flow.src_ip);
    w.put_u16(ev.flow.src_port);
    w.put_u32(ev.flow.dst_ip);
    w.put_u16(ev.flow.dst_port);
    w.put_blob(ev.payload);
  }
  return w.take();
}

Result<ReplayLog> ReplayLog::deserialize(ByteSpan data) {
  ByteReader r(data);
  if (r.get_u32() != kMagic) return Err<ReplayLog>("replay: bad magic");
  if (r.get_u32() != kVersion) return Err<ReplayLog>("replay: bad version");
  u32 count = r.get_u32();
  if (!r.ok()) return Err<ReplayLog>("replay: truncated header");
  ReplayLog log;
  for (u32 i = 0; i < count; ++i) {
    ReplayEvent ev;
    ev.instr_index = r.get_u64();
    ev.kind = static_cast<EventKind>(r.get_u8());
    ev.channel = r.get_u32();
    ev.flow.src_ip = r.get_u32();
    ev.flow.src_port = r.get_u16();
    ev.flow.dst_ip = r.get_u32();
    ev.flow.dst_port = r.get_u16();
    ev.payload = r.get_blob();
    if (!r.ok()) return Err<ReplayLog>("replay: truncated log");
    if (ev.kind != EventKind::kPacketIn &&
        ev.kind != EventKind::kDeviceInput) {
      return Err<ReplayLog>("replay: bad event kind");
    }
    log.append(std::move(ev));
  }
  return log;
}

}  // namespace faros::vm
