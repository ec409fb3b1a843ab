// Guest program (image) builders: the benign victims, the malware loaders
// for all three in-memory injection techniques, the RAT command loop, the
// Table-IV behaviour battery, and the Table-III JIT hosts.
#pragma once

#include <string>
#include <vector>

#include "attacks/payloads.h"
#include "common/result.h"
#include "os/image.h"

namespace faros::attacks {

/// Well-known VFS paths used across scenarios.
namespace paths {
inline constexpr const char* kNotepad = "C:/Windows/notepad.exe";
inline constexpr const char* kSvchost = "C:/Windows/System32/svchost.exe";
inline constexpr const char* kExplorer = "C:/Windows/explorer.exe";
inline constexpr const char* kFirefox = "C:/Program Files/firefox.exe";
inline constexpr const char* kHelper = "C:/Windows/System32/helper.exe";
inline constexpr const char* kSecretDoc = "C:/Users/victim/secret.txt";
inline constexpr const char* kReportDoc = "C:/Users/victim/report.txt";
}  // namespace paths

/// A benign long-running process: yields forever (until machine budget).
Result<os::Image> build_idle_program(const std::string& name);

/// build_idle_program's loop entered with a dirty register bank: it first
/// loads a word of its own (file-tagged) image into r5, which the loop
/// never reads — the shape of an injected payload idling in NtYield.
Result<os::Image> build_dirty_idle_program(const std::string& name);

/// Prints "helper done" and exits (spawned by Run / RemoteShell behaviours).
Result<os::Image> build_helper_program();

/// The reflective-injection loader ("inject_client.exe"): connects to the
/// attacker endpoint, downloads a payload (up to 4096 bytes), and injects
/// it. With a target name it performs remote injection (alloc + write-vm +
/// set-entry); with an empty target it self-injects (alloc RWX in itself,
/// guest-code memcpy, callr) — the paper's reverse_tcp_dns variant where
/// shellcode and target coincide.
struct InjectClientSpec {
  std::string target_name = "notepad.exe";  // empty = self-inject
  /// When set, the client resolves this name with NtResolveHost instead of
  /// using a hard-coded address (the reverse_tcp_dns flavour).
  std::string dns_name;
};
Result<os::Image> build_inject_client(const InjectClientSpec& spec);

/// The process-hollowing loader ("process_hollowing.exe"): embeds `payload`
/// in its own image, spawns `victim_path` suspended, unmaps the victim's
/// image, writes the payload, redirects the entry point, and resumes.
Result<os::Image> build_hollow_loader(const Bytes& payload,
                                      const std::string& victim_path);

/// RAT bot ("DarkComet"/"Njrat" analogue): connects to the attacker
/// endpoint, sends "READY", then executes a command loop — 'I' inject
/// payload into explorer.exe, 'S' remote shell via helper.exe, 'U' upload a
/// file, 'D' drop a file, 'Q'/empty quit.
struct RatSpec {
  std::string name = "darkcomet.exe";
};
Result<os::Image> build_rat_program(const RatSpec& spec);

/// Table IV behaviour set.
enum class Behavior {
  kIdle,
  kRun,
  kAudioRecord,
  kFileTransfer,
  kKeylogger,
  kRemoteDesktop,
  kUpload,
  kDownload,
  kRemoteShell,
};

const char* behavior_name(Behavior b);

/// Builds a (non-injecting) program that performs `behaviors` in order and
/// exits. Connects to the C2 once if any behaviour needs the network.
Result<os::Image> build_behavior_program(const std::string& name,
                                         const std::vector<Behavior>& behaviors);

/// Whether a behaviour needs a C2 connection / consumes a C2 response /
/// consumes input from a device queue (used by scenarios to script the
/// environment).
bool behavior_uses_network(Behavior b);
u32 behavior_c2_responses(Behavior b);   // responses the C2 must queue
u32 behavior_device_chunks(Behavior b, u32* device_id);  // device inputs

/// JIT host ("java.exe" / "browser.exe"): downloads a code blob from the
/// attacker endpoint, copies it into an RWX buffer with guest-code memcpy
/// (so taint propagates byte for byte), and calls it. The blob itself
/// decides whether the workload is benign-compute or runtime-linking
/// (Table III).
Result<os::Image> build_jit_host(const std::string& name);

}  // namespace faros::attacks
