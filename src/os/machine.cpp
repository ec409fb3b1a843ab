#include "os/machine.h"

namespace faros::os {

namespace {

/// Delivers one logged input to the guest, as the recorded run received it.
void deliver(Kernel& kernel, const vm::ReplayEvent& ev) {
  switch (ev.kind) {
    case vm::EventKind::kPacketIn:
      (void)kernel.deliver_packet(ev.flow, ev.payload);
      break;
    case vm::EventKind::kDeviceInput:
      kernel.deliver_device(ev.channel, ev.payload);
      break;
  }
}

}  // namespace

Machine::Machine(const MachineConfig& cfg) : kernel_(cfg.kernel) {}

void Machine::load_replay(const vm::ReplayLog& log) {
  replay_ = log;
  replay_pos_ = 0;
  replay_mode_ = true;
  source_ = nullptr;
}

bool Machine::inject_packet(const FlowTuple& flow, ByteSpan data) {
  bool accepted = kernel_.deliver_packet(flow, data);
  if (accepted && !replay_mode_) {
    vm::ReplayEvent ev;
    ev.instr_index = kernel_.interp().instr_count();
    ev.kind = vm::EventKind::kPacketIn;
    ev.channel = flow.dst_port;
    ev.flow = flow;
    ev.payload = Bytes(data.begin(), data.end());
    recording_.append(std::move(ev));
  }
  return accepted;
}

void Machine::inject_device(u32 device_id, ByteSpan data) {
  kernel_.deliver_device(device_id, data);
  if (!replay_mode_) {
    vm::ReplayEvent ev;
    ev.instr_index = kernel_.interp().instr_count();
    ev.kind = vm::EventKind::kDeviceInput;
    ev.channel = device_id;
    ev.payload = Bytes(data.begin(), data.end());
    recording_.append(std::move(ev));
  }
}

void Machine::pump_events() {
  if (replay_mode_) {
    const auto& events = replay_.events();
    while (replay_pos_ < events.size() &&
           events[replay_pos_].instr_index <=
               kernel_.interp().instr_count()) {
      deliver(kernel_, events[replay_pos_++]);
    }
  } else if (source_) {
    const auto& outbound = kernel_.net().outbound();
    while (outbound_cursor_ < outbound.size()) {
      source_->on_outbound(*this, outbound[outbound_cursor_++]);
    }
  }
}

RunStats Machine::run(u64 max_instructions, RunGovernor* gov) {
  RunStats stats;
  while (stats.instructions < max_instructions) {
    pump_events();
    Process* p = kernel_.pick_next();
    if (!p) {
      // Nothing runnable. In replay, fast-forward to the next logged event
      // (the recorded run was waiting on exactly this input).
      if (replay_mode_ && replay_pos_ < replay_.size()) {
        deliver(kernel_, replay_.events()[replay_pos_++]);
        continue;
      }
      stats.all_exited = kernel_.live_count() == 0;
      stats.deadlocked = !stats.all_exited;
      return stats;
    }
    // Poll the governor only when there is genuinely more work to run: a
    // workload that has already completed (or deadlocked) at the instant a
    // deadline fires must report its true terminal state, not an abort.
    // Polling at the loop top made kOk-vs-kTimeout depend on timing.
    if (gov && gov->should_stop()) {
      stats.aborted = true;
      return stats;
    }
    u64 quantum = std::min<u64>(kQuantum,
                                max_instructions - stats.instructions);
    stats.instructions += kernel_.run_process(*p, quantum);
    ++stats.scheduling_rounds;
    if (kernel_.live_count() == 0) {
      stats.all_exited = true;
      return stats;
    }
  }
  return stats;
}

}  // namespace faros::os
