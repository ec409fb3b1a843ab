#include "common/strings.h"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace faros {

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

std::string hex32(u32 v) { return strf("0x%08x", v); }

std::string hex64(u64 v) { return strf("0x%llx", static_cast<unsigned long long>(v)); }

std::string ipv4_to_string(u32 ip) {
  return strf("%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
              (ip >> 8) & 0xff, ip & 0xff);
}

namespace {

/// from_chars into the target width: out-of-range input is an error, and
/// `*out` is only written on success.
template <typename T>
bool parse_decimal(std::string_view s, T* out) {
  const char* end = s.data() + s.size();
  T v{};
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool parse_u64(std::string_view s, u64* out) { return parse_decimal(s, out); }
bool parse_u32(std::string_view s, u32* out) { return parse_decimal(s, out); }

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

}  // namespace faros
