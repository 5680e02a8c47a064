// Minimal JSON document model shared by the scenario files
// (api/serialize.cpp) and the service wire format (api/wire.cpp).
//
// No external dependency: the grammar these layers need (objects,
// arrays, numbers, strings, booleans) fits in a small recursive
// descent parser, and one document tree keeps every writer and parser
// symmetric. Numbers keep their literal spelling (`raw`), so 64-bit
// integers and shortest-round-trip doubles survive a decode/encode
// cycle exactly — the wire layer's bitwise-determinism contract rests
// on that.
//
// The field helpers (`get_u64`, `check_keys`, ...) implement the
// strict-parsing policy both consumers share: unknown keys and
// type-mismatched values are errors, never silently dropped.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cbtc::api::json {

struct jv {
  enum class kind { null, boolean, number, string, array, object };

  kind k{kind::null};
  bool b{false};
  double num{0.0};
  std::string raw;  // number literal as written (exact u64 round-trip)
  std::string str;
  std::vector<jv> items;
  std::vector<std::pair<std::string, jv>> fields;

  [[nodiscard]] static jv of(bool v);
  /// Throws std::invalid_argument for non-finite values (JSON has no
  /// inf/nan; writing one would produce a file every parser rejects).
  [[nodiscard]] static jv of(double v);
  [[nodiscard]] static jv of_u64(std::uint64_t v);
  [[nodiscard]] static jv of(std::string v);
  // Without this, string literals would silently decay to the bool
  // overload.
  [[nodiscard]] static jv of(const char* v) { return of(std::string(v)); }
  [[nodiscard]] static jv array();
  [[nodiscard]] static jv object();

  jv& add(std::string key, jv value) {
    fields.emplace_back(std::move(key), std::move(value));
    return *this;
  }
};

/// Pretty-prints `v` (2-space indent, scalar arrays on one line).
void write_value(std::ostream& os, const jv& v, int indent);

/// Deepest nesting of arrays and objects parse_document accepts.
inline constexpr std::size_t max_depth = 64;

/// Parses one JSON value; throws std::invalid_argument with an
/// offset-annotated message on malformed input, trailing content,
/// nesting deeper than max_depth, or an object that repeats a key.
[[nodiscard]] jv parse_document(std::string_view text);

// ---- object field access (strict: unknown keys are errors) ---------

[[nodiscard]] const jv* get(const jv& obj, std::string_view key);

void check_keys(const jv& obj, const char* where,
                std::initializer_list<std::string_view> allowed);

/// Throws std::invalid_argument("JSON: " + what) when !cond.
void require(bool cond, const std::string& what);

/// Exact for plain integer literals; accepts other spellings of an
/// exact non-negative integer (e.g. 1e3) but rejects fractions and
/// values of 2^64 and up. `what` names the value in the error.
[[nodiscard]] std::uint64_t as_u64(const jv& v, std::string_view what);
/// as_u64 of field `key`, or `fallback` when the field is absent.
[[nodiscard]] std::uint64_t get_u64(const jv& obj, std::string_view key, std::uint64_t fallback);
[[nodiscard]] bool get_bool(const jv& obj, std::string_view key, bool fallback);
[[nodiscard]] std::string get_str(const jv& obj, std::string_view key, std::string fallback);

}  // namespace cbtc::api::json
