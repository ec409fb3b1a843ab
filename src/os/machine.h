// Machine: the whole sandbox VM — kernel + scheduler driver + record/replay.
//
// Two run modes, either one with or without plugins attached:
//   * RECORD: boot a machine, attach an EventSource (the scripted attacker
//      C2, handed each outbound packet once), run the workload. All
//      nondeterministic inputs are captured in a ReplayLog.
//      attacks::Analysis (the farm's job, the benches, the examples)
//      attaches the FAROS plugin (vm::ExecHooks + osi::GuestMonitor)
//      before boot, so the live run is analyzed while it records.
//   * REPLAY: boot an identical machine, load the log, run. Execution is
//      bit-identical to the recorded run. The farm never replays; the
//      paper's offline Section V-C workflow (record bare, analyze on
//      replay), Table V and the live-vs-replay oracle test do.
#pragma once

#include <memory>

#include "os/kernel.h"
#include "vm/replay.h"

namespace faros::os {

class Machine;

/// Live input source for record mode (scripted remote peers). Machine::run
/// hands it each outbound guest packet once, in send order, at the top of
/// the first scheduling round after the send; it answers through the
/// Machine injection API. A round ends at its one syscall, so at most one
/// packet is new per round.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual void on_outbound(Machine& m, const OutboundPacket& pkt) = 0;
};

/// Instructions per scheduling slice.
inline constexpr u32 kQuantum = 256;

struct MachineConfig {
  KernelConfig kernel;
};

struct RunStats {
  u64 instructions = 0;
  u64 scheduling_rounds = 0;
  bool all_exited = false;   // every process terminated
  bool deadlocked = false;   // live processes but nothing runnable
  bool aborted = false;      // a RunGovernor stopped the run early
};

/// External run supervisor (the farm's per-job watchdog). Polled between
/// scheduling rounds; returning true aborts the run with stats.aborted set.
/// The governor never alters the execution path up to the abort point, so a
/// run that is not aborted retires the exact same instruction sequence as a
/// run without a governor.
class RunGovernor {
 public:
  virtual ~RunGovernor() = default;
  virtual bool should_stop() = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg = {});

  Result<void> boot() { return kernel_.boot(); }

  Kernel& kernel() { return kernel_; }
  const Kernel& kernel() const { return kernel_; }

  /// Attaches an instruction-level plugin (the FAROS taint engine).
  void attach_cpu_plugin(vm::ExecHooks* hooks) {
    kernel_.interp().set_hooks(hooks);
  }
  /// Attaches a semantic-event monitor (FAROS, CuckooBox baseline, probes).
  void add_monitor(osi::GuestMonitor* m) { kernel_.monitors().attach(m); }

  /// Record mode: attach the live input source.
  void set_event_source(EventSource* src) { source_ = src; }

  /// Replay mode: feed a previously recorded log. Clears any EventSource.
  void load_replay(const vm::ReplayLog& log);

  /// Runs until every process exits, nothing can make progress,
  /// `max_instructions` retire, or `gov` (optional) requests a stop.
  RunStats run(u64 max_instructions, RunGovernor* gov = nullptr);

  // --- injection API (EventSources call these; record mode logs them) ---
  /// Returns false if no guest socket accepted the packet (it is dropped
  /// and NOT recorded).
  bool inject_packet(const FlowTuple& flow, ByteSpan data);
  void inject_device(u32 device_id, ByteSpan data);

  /// Everything recorded so far (valid in record mode).
  const vm::ReplayLog& recording() const { return recording_; }

 private:
  void pump_events();

  Kernel kernel_;
  EventSource* source_ = nullptr;
  size_t outbound_cursor_ = 0;  // outbound packets handed to source_

  vm::ReplayLog recording_;
  vm::ReplayLog replay_;
  size_t replay_pos_ = 0;
  bool replay_mode_ = false;
};

}  // namespace faros::os
