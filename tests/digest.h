// A 64-bit digest for pinning exact byte strings in one table line
// (golden scenario bytes, report bytes).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

namespace cbtc {

/// 64-bit FNV-1a.
inline std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// Appends `x` as a hex float and a space: every bit of the double
/// lands in the string, so a digest over it pins the value exactly.
inline void append_hex(std::string& bytes, double x) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x, std::chars_format::hex);
  bytes.append(buf, end);
  bytes += ' ';
}

}  // namespace cbtc
