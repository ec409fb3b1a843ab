// Position-independent payload builders — the "shellcode" side of every
// scenario. A payload is a self-contained FV32 blob (assembled at base 0,
// PC-relative data addressing) that can be dropped at any address in any
// process: served over the simulated network by the C2, embedded in a
// hollowing loader's image, or pushed as "JIT bytecode".
#pragma once

#include <string>

#include "common/result.h"
#include "common/types.h"

namespace faros::attacks {

enum class PayloadAction {
  /// Resolve user32!MessageBoxA by walking export tables inline, then call
  /// it — the classic reflective-DLL proof of injection (paper Section VI:
  /// "The injected DLL only showed a pop-up message from the target
  /// process").
  kMessageBox,
  /// Announce via MessageBoxA, then log three keyboard-device reads to
  /// C:/Temp/keys.log (the Lab 3-3 process-hollowing keylogger analogue).
  kKeylogger,
  /// Pure arithmetic loop (96 rounds): no linking at all. Used for the 18
  /// benign JIT workloads that FAROS must NOT flag.
  kCompute,
  /// Resolve ntdll!RtlMemset inline (runtime linking), call it, then
  /// compute. Network-delivered code that links via export tables — the
  /// JIT false-positive shape (2 of the 20 Table III workloads).
  kLinkedCompute,
};

enum class PayloadEnding {
  kExit,         // NtExit(0): ends the (victim) process
  kRet,          // plain ret: for payloads invoked via callr
  kLoopForever,  // yield loop: stays resident (gives malfind a target)
};

struct PayloadSpec {
  PayloadAction action = PayloadAction::kMessageBox;
  PayloadEnding ending = PayloadEnding::kExit;
  /// Overwrite the payload's own code with zeros after acting (transient
  /// in-memory attack: defeats end-of-run memory dumps, Section VI-B).
  bool erase_self = false;
  std::string message = "FAROS-INJECTED";
};

/// Assembles the payload blob. Entry point is offset 0.
Result<Bytes> build_payload(const PayloadSpec& spec);

}  // namespace faros::attacks
