// Small string/formatting helpers used by reports and disassembly.
#pragma once

#include <string>
#include <string_view>

#include "common/types.h"

namespace faros {

/// printf-style formatting into std::string.
std::string strf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Hex rendering of a 32-bit value, zero padded ("0x83b07019").
std::string hex32(u32 v);
/// Hex rendering of a 64-bit value with minimal width.
std::string hex64(u64 v);

/// Render an IPv4 address stored in host byte order ("169.254.26.161").
std::string ipv4_to_string(u32 ip);

/// Strict unsigned decimal: digits only, the whole of `s`. Rejects what
/// strtoull would let through: empty input, a sign ("-1" wrapping to
/// 2^64-1), whitespace, a radix prefix, trailing junk, and overflow.
/// parse_u32 also rejects values above UINT32_MAX instead of truncating
/// them. `*out` is written only on success.
bool parse_u64(std::string_view s, u64* out);
bool parse_u32(std::string_view s, u32* out);

bool ends_with(std::string_view s, std::string_view suffix);

}  // namespace faros
