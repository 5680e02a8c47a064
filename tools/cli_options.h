// Checked option values shared by cbtc_cli and cbtc_serve: a bad value
// is a usage error that names its option, never an uncaught parse
// exception or a silent wrap into a narrower type.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace cbtc::tools {

/// A bad command line: print the message, then usage, exit 2.
struct usage_error : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The integer value `text` of option --key, parsed directly (no
/// double round-trip, so 64-bit seeds survive exactly) and
/// range-checked against its destination type `T` before the cast.
template <class T>
[[nodiscard]] T parse_count(const std::string& key, const std::string& text) {
  std::uint64_t value = 0;
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || end != text.data() + text.size()) {
    throw usage_error("option --" + key + ": expected a non-negative integer, got '" + text + "'");
  }
  constexpr auto max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  if (value > max) {
    throw usage_error("option --" + key + ": " + text + " is above the maximum " +
                      std::to_string(max));
  }
  return static_cast<T>(value);
}

}  // namespace cbtc::tools
