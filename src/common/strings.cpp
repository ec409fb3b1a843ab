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

u32 parse_ipv4(std::string_view s) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  std::string buf(s);
  if (std::sscanf(buf.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4) return 0;
  if (a > 255 || b > 255 || c > 255 || d > 255) return 0;
  return (a << 24) | (b << 16) | (c << 8) | d;
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
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

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string hexdump(ByteSpan data, u64 base_addr) {
  std::string out;
  for (size_t off = 0; off < data.size(); off += 16) {
    out += strf("%08llx  ", static_cast<unsigned long long>(base_addr + off));
    std::string ascii;
    for (size_t i = 0; i < 16; ++i) {
      if (off + i < data.size()) {
        u8 b = data[off + i];
        out += strf("%02x ", b);
        ascii += (b >= 0x20 && b < 0x7f) ? static_cast<char>(b) : '.';
      } else {
        out += "   ";
      }
      if (i == 7) out += ' ';
    }
    out += " |" + ascii + "|\n";
  }
  return out;
}

}  // namespace faros
