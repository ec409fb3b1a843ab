// Deterministic hashing helpers. Used for export-table symbol lookup inside
// guest code (name hashes embedded in images), provenance-list interning,
// and test fixtures. Must stay stable across runs for record/replay.
#pragma once

#include <string_view>

#include "common/types.h"

namespace faros {

/// 32-bit FNV-1a over a byte span.
constexpr u32 fnv1a32(ByteSpan data) {
  u32 h = 0x811c9dc5u;
  for (u8 b : data) {
    h ^= b;
    h *= 0x01000193u;
  }
  return h;
}

/// 32-bit FNV-1a over a string (the form guest images use for symbol names).
constexpr u32 fnv1a32(std::string_view s) {
  u32 h = 0x811c9dc5u;
  for (char c : s) {
    h ^= static_cast<u8>(c);
    h *= 0x01000193u;
  }
  return h;
}

/// Boost-style hash combiner.
constexpr u64 hash_combine(u64 seed, u64 v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ull + (seed << 12) + (seed >> 4));
}

}  // namespace faros
