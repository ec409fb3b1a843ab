// Scenario catalogue + the analysis harness. The paper's Section V-C
// workflow records the malware run live and replays it under the FAROS
// plugin; here Analysis attaches FAROS to the live run itself and keeps
// the ReplayLog it records, and record_run()/replay_run() remain for
// replaying a log under further analyses (DESIGN.md §1 deviations).
//
// A Scenario installs guest images into the VFS, spawns the initial
// processes, preloads device input, and supplies the scripted remote peer.
// Setup is deterministic, so running the same scenario against the same
// MachineConfig with the recorded ReplayLog reproduces the run exactly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "attacks/c2.h"
#include "attacks/payloads.h"
#include "attacks/programs.h"
#include "core/engine.h"
#include "obs/obs.h"
#include "os/machine.h"

namespace faros::attacks {

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual std::string name() const = 0;
  /// Installs images, spawns processes, preloads device queues.
  virtual Result<void> setup(os::Machine& m) = 0;
  /// Scripted environment for record mode (may be null).
  virtual std::unique_ptr<os::EventSource> make_source() { return nullptr; }
  /// Instruction budget for one run.
  virtual u64 budget() const { return 2'000'000; }
};

struct RecordedRun {
  vm::ReplayLog log;
  os::RunStats stats;
  std::vector<std::string> console;
  std::vector<std::string> traps;
};

/// Records a live run of the scenario (no analysis plugins attached).
Result<RecordedRun> record_run(Scenario& sc, const os::MachineConfig& cfg = {});

struct ReplayedRun {
  os::RunStats stats;
  std::vector<std::string> console;
  std::vector<std::string> traps;
};

/// Replays a recorded log with optional plugins attached. The plugins see
/// boot (module loads), setup (process starts) and the whole execution.
Result<ReplayedRun> replay_run(Scenario& sc, const vm::ReplayLog& log,
                               vm::ExecHooks* cpu_plugin,
                               const std::vector<osi::GuestMonitor*>& monitors,
                               const os::MachineConfig& cfg = {});

/// One scenario run under FAROS: the farm's job, the paper benches and the
/// examples all analyze through this body. The machine and engine stay
/// alive after the run for inspection (findings, graph export, taint map).
///
/// Before start(), engine() and machine() take further wiring: extra rule
/// sets, a vm::Tracer chained in front of the engine, more monitors.
class Analysis {
 public:
  explicit Analysis(const core::Options& opts = {},
                    const os::MachineConfig& cfg = {});
  Analysis(const Analysis&) = delete;
  Analysis& operator=(const Analysis&) = delete;

  /// Boots, attaches the scenario's event source (live runs only), runs
  /// setup() and, when `replay` is set, loads that log instead. Errors
  /// are prefixed "boot: " or "setup: ".
  Result<void> start(Scenario& sc, const vm::ReplayLog* replay = nullptr);
  /// Runs up to `budget` instructions under the Tmr::kRecord phase timer.
  os::RunStats run(u64 budget, os::RunGovernor* gov = nullptr);

  /// The engine's metric snapshot with the machine's own counters folded
  /// in: block-cache stats, scheduling rounds, TLB misses and, on a
  /// snapshot clone, the copy-on-write counters. Not collected when the
  /// engine collects no metrics.
  obs::MetricSnapshot metrics() const;

  core::FarosEngine& engine() { return engine_; }
  os::Machine& machine() { return machine_; }

 private:
  // Declaration order is destruction order reversed: the engine goes
  // first, then the event source, then the machine both point into.
  os::Machine machine_;
  std::unique_ptr<os::EventSource> source_;
  core::FarosEngine engine_;
  u64 sched_rounds_ = 0;  // summed over run() calls
};

/// One live run under FAROS. `recorded` holds that run's log, stats,
/// console and traps; replaying the log under a fresh engine reproduces
/// the analysis (the live-vs-replay oracle test pins this).
struct AnalyzedRun {
  RecordedRun recorded;
  std::vector<core::Finding> findings;       // all, including whitelisted
  /// core::render_chain of each finding's fetch_prov and target_prov,
  /// parallel to findings.
  std::vector<std::string> fetch_chains;
  std::vector<std::string> target_chains;
  bool flagged = false;                      // any non-whitelisted finding
  std::string report;                        // Table II-style text
  core::EngineStats engine_stats;
  size_t prov_lists = 0;                     // distinct provenance lists
  u64 tainted_bytes = 0;                     // shadow residency at end
};

Result<AnalyzedRun> analyze(Scenario& sc, const core::Options& opts = {},
                            const os::MachineConfig& cfg = {});

/// The static-analysis view of a scenario (src/sa's input): boots a scratch
/// machine, runs setup() — which installs images into the VFS and spawns
/// the initial processes, but retires zero guest instructions — and returns
/// every VFS file that parses as an SX32 image, in path order. Setup is
/// deterministic, so the extracted set is a pure function of the scenario.
struct ExtractedImage {
  std::string path;  // VFS path the image was installed at
  os::Image image;
};

Result<std::vector<ExtractedImage>> extract_images(
    Scenario& sc, const os::MachineConfig& cfg = {});

// ---------------------------------------------------------------------------
// The six in-memory-injection scenarios of the paper's evaluation.

enum class ReflectiveVariant {
  kMeterpreter,    // reflective_dll_inject: remote inject into notepad.exe
  kReverseTcpDns,  // shellcode and target are the same process
  kBypassUac,      // remote inject into firefox.exe
};

class ReflectiveDllScenario final : public Scenario {
 public:
  explicit ReflectiveDllScenario(ReflectiveVariant variant,
                                 bool transient = false);
  std::string name() const override;
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
  const std::string& victim_name() const { return victim_; }

 private:
  ReflectiveVariant variant_;
  bool transient_;  // payload erases itself after acting
  std::string victim_;
  std::string victim_path_;  // empty for self-injection
};

/// Process hollowing of svchost.exe into a keylogger (Lab 3-3 analogue).
class HollowingScenario final : public Scenario {
 public:
  explicit HollowingScenario(bool transient = false)
      : transient_(transient) {}
  std::string name() const override { return "process_hollowing"; }
  Result<void> setup(os::Machine& m) override;
  u64 budget() const override { return 400'000; }

 private:
  bool transient_;
};

/// RAT code/process injection (DarkComet / Njrat analogues).
class RatInjectionScenario final : public Scenario {
 public:
  explicit RatInjectionScenario(std::string rat_name)
      : rat_name_(std::move(rat_name)) {}
  std::string name() const override { return rat_name_ + "-injection"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }

 private:
  std::string rat_name_;
};

/// Multi-stage dropper (extension beyond the paper's six samples, exercising
/// the paper's Figure-4 byte lifecycle end to end): stage 1 downloads a
/// stage-2 *executable*, writes it to disk and spawns it; stage 2 links
/// itself by walking export tables. The provenance of the flagged
/// instruction spans the whole chain:
///   NetFlow -> dropper.exe -> File(update.exe) -> update.exe.
class DropperChainScenario final : public Scenario {
 public:
  std::string name() const override { return "dropper_chain"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

/// IPC relay (extension): a frontend downloads the payload from the C2 and
/// relays it to a backend service over a *loopback* socket; the backend
/// runs it. Exercises whole-system tracking through the network stack: the
/// flagged instruction's chain holds both netflows and both processes —
///   NetFlow(C2) -> frontend.exe -> NetFlow(loopback) -> backend.exe.
class IpcRelayScenario final : public Scenario {
 public:
  std::string name() const override { return "ipc_relay"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

/// Atom bombing (extension; the paper cites the Windows Defender write-up
/// on this technique): the attacker stages the payload in the *global atom
/// table* and posts the atom id to the victim's message pump (modelled as
/// a loopback message); the victim fetches the atom into executable memory
/// and runs it. No NtWriteVirtualMemory ever happens — the payload travels
/// entirely through kernel-resident storage, which the taint engine shadows.
class AtomBombingScenario final : public Scenario {
 public:
  std::string name() const override { return "atom_bombing"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

/// Multi-stage C2 (extension; exercises config-only detection through the
/// rule engine): the stager pulls an XOR-encoded payload from one C2
/// endpoint and the 8-byte key from a *second* endpoint, decodes into RWX
/// memory and runs the result. The payload never walks an export table, so
/// the built-in confluence rules stay silent — but the decoded code's
/// provenance carries both netflows, and a one-line policy rule
/// ("fetch distinct-netflows>=2" on tainted-load, see
/// policies/multistage.json) flags it with no host-code change. Not part
/// of full_corpus(): its ground truth depends on the loaded ruleset.
class MultiStageC2Scenario final : public Scenario {
 public:
  std::string name() const override { return "multi_stage_c2"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

/// Thread-hijack-style injection (multi-hop slice scenario): the hijacker
/// downloads a payload, *suspends a running victim*, carves an RWX region,
/// writes the payload across the process boundary, redirects the thread
/// context (entry point) and resumes — the SetThreadContext flavour of
/// injection, no new thread, no process spawn. Ground-truth backward slice
/// from the finding: NetFlow -> hijacker.exe -> victim RWX region.
class ThreadHijackScenario final : public Scenario {
 public:
  std::string name() const override { return "thread_hijack"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

/// A -> B -> C injection relay (multi-hop slice scenario): stage0.exe
/// downloads a combined [stub][payload] blob and thread-hijacks it into
/// relay.exe; the position-independent stub then re-injects the embedded
/// payload into conhost.exe the same way and exits. Only the final victim
/// walks export tables, so only C flags — but the payload's provenance
/// carries the netflow plus both intermediary processes, which is exactly
/// what a backward slice must surface:
///   NetFlow -> stage0.exe -> relay.exe -> conhost.exe RWX region.
class InjectionRelayScenario final : public Scenario {
 public:
  std::string name() const override { return "injection_relay"; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  u64 budget() const override { return 400'000; }
};

// ---------------------------------------------------------------------------
// Non-injecting workloads (Tables III and IV).

/// One Table IV sample: a named program executing a behaviour set.
class BehaviorScenario final : public Scenario {
 public:
  BehaviorScenario(std::string sample_name,
                   std::vector<Behavior> behaviors)
      : sample_name_(std::move(sample_name)),
        behaviors_(std::move(behaviors)) {}
  std::string name() const override { return sample_name_; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  const std::vector<Behavior>& behaviors() const { return behaviors_; }

 private:
  std::string sample_name_;
  std::vector<Behavior> behaviors_;
};

/// One Table III JIT workload: a host that downloads code and runs it.
/// `linking` workloads resolve a helper through the export tables from the
/// network-derived code (the FP shape); the rest are pure compute.
class JitScenario final : public Scenario {
 public:
  JitScenario(std::string workload_name, std::string host_name, bool linking)
      : workload_(std::move(workload_name)),
        host_(std::move(host_name)),
        linking_(linking) {}
  std::string name() const override { return workload_; }
  Result<void> setup(os::Machine& m) override;
  std::unique_ptr<os::EventSource> make_source() override;
  bool linking() const { return linking_; }
  const std::string& host_process() const { return host_; }

 private:
  std::string workload_;
  std::string host_;
  bool linking_;
};

}  // namespace faros::attacks
