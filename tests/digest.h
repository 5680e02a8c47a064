// A 64-bit digest for pinning exact byte strings in one table line
// (golden scenario bytes, report bytes).
#pragma once

#include <cstdint>
#include <string_view>

namespace cbtc {

/// 64-bit FNV-1a.
inline std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

}  // namespace cbtc
