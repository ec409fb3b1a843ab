// Execution tracer: an ExecHooks plugin keeping a ring buffer of retired
// instructions (disassembled on demand) and per-address-space counters.
// Chains to a downstream plugin so it can ride along with the FAROS engine
// — the reverse engineer's "what executed around the finding" view.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>

#include "vm/cpu.h"

namespace faros::vm {

class Tracer : public ExecHooks {
 public:
  struct Entry {
    u64 instr_index = 0;
    PAddr cr3 = 0;
    VAddr pc = 0;
    Instruction insn;
    bool has_mem = false;
    VAddr mem_va = 0;
    bool mem_write = false;
  };

  explicit Tracer(size_t capacity = 4096) : capacity_(capacity) {}

  /// Downstream plugin invoked after recording (e.g. the FAROS engine).
  void chain(ExecHooks* next) { next_ = next; }

  void on_insn_retired(const InsnEvent& ev, const AddressSpace& as) override {
    Entry e;
    e.instr_index = ev.instr_index;
    e.cr3 = ev.cr3;
    e.pc = ev.pc;
    e.insn = ev.insn;
    if (ev.mem) {
      e.has_mem = true;
      e.mem_va = ev.mem->va;
      e.mem_write = ev.mem->is_write;
    }
    ring_.push_back(e);
    if (ring_.size() > capacity_) ring_.pop_front();
    ++total_;
    ++per_space_[ev.cr3];
    if (next_) next_->on_insn_retired(ev, as);
  }

  const std::deque<Entry>& entries() const { return ring_; }
  u64 total() const { return total_; }
  size_t capacity() const { return capacity_; }

  /// Instructions retired in the address space identified by `cr3`.
  u64 count_for(PAddr cr3) const {
    auto it = per_space_.find(cr3);
    return it == per_space_.end() ? 0 : it->second;
  }

  /// Disassembled dump of the most recent `last_n` entries.
  std::string dump(size_t last_n = 32) const;

  void clear() {
    ring_.clear();
    per_space_.clear();
    total_ = 0;
  }

 private:
  size_t capacity_;
  ExecHooks* next_ = nullptr;
  std::deque<Entry> ring_;
  std::unordered_map<PAddr, u64> per_space_;
  u64 total_ = 0;
};

}  // namespace faros::vm
