#include "api/serialize.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "api/json.h"
#include "api/schema.h"
#include "api/serialize_detail.h"

namespace cbtc::api {

using json::get;
using json::jv;
using json::require;
using schema::domain;

namespace {

template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;
// The failure window: two members under one [begin, end] key.
template <class T>
inline constexpr bool is_pair_ref = false;
template <class A, class B>
inline constexpr bool is_pair_ref<std::tuple<A&, B&>> = true;

// ---- domains -------------------------------------------------------

bool admits(const domain& d, double x) {
  return d.k == domain::kind::number && (d.lo_open ? x > d.lo : x >= d.lo) &&
         (d.hi_open ? x < d.hi : x <= d.hi);
}

std::string out_of(const domain& d, const std::string& path, const jv& v) {
  const auto bound = [](double x) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
  };
  return path + " must be in " + (d.lo_open ? "(" : "[") + bound(d.lo) + ", " + bound(d.hi) +
         (d.hi_open ? ")" : "]") + " (got " + v.raw + ")";
}

double number_in(const jv& v, const domain& dom, const std::string& path) {
  require(v.k == jv::kind::number, path + " must be a number");
  require(admits(dom, v.num), out_of(dom, path, v));
  return v.num;
}

/// Range-checked before the cast, so no count is ever narrowed.
template <class T>
T integer_in(const jv& v, const domain& dom, const std::string& path) {
  const std::uint64_t x = json::as_u64(v, path);
  require(admits(dom, static_cast<double>(x)) && x <= std::numeric_limits<T>::max(),
          out_of(dom, path, v));
  return static_cast<T>(x);
}

template <std::size_t N>
std::array<double, N> numbers_in(const jv& v, const domain& dom, const std::string& path) {
  require(v.k == jv::kind::array && v.items.size() == N,
          path + " must be an array of " + std::to_string(N) + " numbers");
  std::array<double, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = number_in(v.items[i], dom, path);
  return out;
}

jv numbers_of(std::initializer_list<double> xs) {
  jv a = jv::array();
  for (const double x : xs) a.items.push_back(jv::of(x));
  return a;
}

/// Runs `parse`, naming the field in a rejection.
template <class F>
auto at_path(const std::string& path, F&& parse) {
  try {
    return parse();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("JSON: " + path + ": " + e.what());
  }
}

// ---- rules that span fields ----------------------------------------

void check_rules(auto&, const jv&, const std::string&) {}

/// The positions of a `fixed` deployment fix its node count.
void check_rules(deployment_spec& d, const jv&, const std::string& path) {
  if (d.kind != deployment_kind::fixed) return;
  require(!d.fixed.empty(), path + ".positions must be non-empty for kind \"fixed\"");
  d.nodes = d.fixed.size();
}

void check_rules(radio::obstacle& ob, const jv& o, const std::string& path) {
  require(get(o, "box") != nullptr, path + ".box is missing");
  require(ob.box.min.x <= ob.box.max.x && ob.box.min.y <= ob.box.max.y,
          path + ".box must satisfy x0 <= x1 and y0 <= y1");
}

void check_rules(propagation_spec& p, const jv&, const std::string& path) {
  require(p.kind != radio::propagation_kind::obstacle_field || !p.obstacles.empty(),
          path + ".obstacles must be non-empty for kind \"obstacle_field\"");
}

// Both ranges are preconditions of std::uniform_real_distribution.
void check_rules(mobility_spec& m, const jv&, const std::string& path) {
  require(m.min_speed <= m.max_speed, path + ".min_speed must not exceed max_speed");
}

void check_rules(failure_spec& f, const jv&, const std::string& path) {
  require(f.window_begin <= f.window_end, path + ".window must satisfy begin <= end");
}

/// Every self-rescheduling cadence fits at most max_periods_per_run
/// periods into the horizon.
void check_rules(sim_spec& s, const jv&, const std::string& path) {
  const auto budget = [&](double cadence, const std::string& key) {
    require(s.horizon / cadence <= static_cast<double>(max_periods_per_run),
            path + "." + key + ": horizon / " + key + " exceeds max_periods_per_run (" +
                std::to_string(max_periods_per_run) + ")");
  };
  if (s.sample_every > 0.0) budget(s.sample_every, "sample_every");
  budget(s.beacons.interval, "beacons.interval");
  if (s.mobility.kind != mobility_kind::none) budget(s.mobility.tick, "mobility.tick");
  if (s.traffic.enabled()) {
    budget(s.traffic.period, "traffic.period");
    budget(s.traffic.route_refresh, "traffic.route_refresh");
  }
}

// ---- specs <-> jv, derived from the field tables -------------------

template <class S>
jv object_of(const S& s);
template <class S>
void read_object(const jv& o, S& s, const std::string& path);

template <class T, class D>
jv to_value(const T& v, const D& dom) {
  if constexpr (std::is_same_v<D, schema::method_names_t>) {
    return jv::of(method_name(v));
  } else if constexpr (std::is_enum_v<T>) {
    return jv::of(std::string(schema::name_of(dom, v)));
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return jv::of(v);
  } else if constexpr (std::is_integral_v<T>) {
    return jv::of_u64(v);
  } else if constexpr (std::is_same_v<T, geom::vec2>) {
    return numbers_of({v.x, v.y});
  } else if constexpr (std::is_same_v<T, geom::bbox>) {
    return numbers_of({v.min.x, v.min.y, v.max.x, v.max.y});
  } else if constexpr (is_pair_ref<T>) {
    return numbers_of({std::get<0>(v), std::get<1>(v)});
  } else if constexpr (is_vector<T>) {
    jv a = jv::array();
    for (const auto& e : v) a.items.push_back(to_value(e, dom));
    return a;
  } else {
    return object_of(v);
  }
}

template <class T, class D>
void from_value(const jv& v, T& out, const D& dom, const std::string& path) {
  if constexpr (std::is_same_v<D, schema::method_names_t> || std::is_enum_v<T>) {
    require(v.k == jv::kind::string, path + " must be a string");
    if constexpr (std::is_enum_v<T>) {
      out = at_path(path, [&] { return schema::parse_name(dom, v.str); });
    } else {
      out = at_path(path, [&] { return parse_method(v.str); });
    }
  } else if constexpr (std::is_same_v<T, bool>) {
    require(v.k == jv::kind::boolean, path + " must be true or false");
    out = v.b;
  } else if constexpr (std::is_same_v<T, std::string>) {
    require(v.k == jv::kind::string, path + " must be a string");
    out = v.str;
  } else if constexpr (std::is_same_v<T, double>) {
    out = number_in(v, dom, path);
  } else if constexpr (std::is_integral_v<T>) {
    out = integer_in<T>(v, dom, path);
  } else if constexpr (std::is_same_v<T, geom::vec2>) {
    const auto [x, y] = numbers_in<2>(v, dom, path);
    out = {x, y};
  } else if constexpr (std::is_same_v<T, geom::bbox>) {
    const auto [x0, y0, x1, y1] = numbers_in<4>(v, dom, path);
    out = {{x0, y0}, {x1, y1}};
  } else if constexpr (is_pair_ref<T>) {
    const auto [a, b] = numbers_in<2>(v, dom, path);
    out = std::tuple{a, b};
  } else if constexpr (is_vector<T>) {
    require(v.k == jv::kind::array, path + " must be an array");
    out.assign(v.items.size(), {});
    for (std::size_t i = 0; i < out.size(); ++i) {
      from_value(v.items[i], out[i], dom, path + "[" + std::to_string(i) + "]");
    }
  } else {
    if constexpr (std::is_same_v<T, method_spec>) {
      // A bare method name is shorthand for {"name": ...}.
      if (v.k == jv::kind::string) return from_value(v, out, schema::method_names, path);
    }
    read_object(v, out, path);
  }
}

/// The table's fields whose gate is open, in table order.
template <class S>
jv object_of(const S& s) {
  jv o = jv::object();
  schema::for_each_field(
      [&o](std::string_view key, const auto& member, const auto& dom, schema::gate g = {}) {
        if (g.open) o.add(std::string(key), to_value(member, dom));
      },
      s);
  return o;
}

/// Every table key is optional and keeps its default when absent; a
/// key outside the table, or owned by another kind, is rejected.
template <class S>
void read_object(const jv& o, S& s, const std::string& path) {
  require(o.k == jv::kind::object, path + " must be an object");
  std::vector<std::string_view> keys;
  schema::for_each_field(
      [&](std::string_view key, auto&& member, const auto& dom, schema::gate g = {}) {
        keys.push_back(key);
        const jv* v = get(o, key);
        if (v == nullptr) return;
        const std::string at = path + "." + std::string(key);
        require(g.open || g.owner.empty(),
                at + " is only valid for kind \"" + std::string(g.owner) + "\"");
        from_value(*v, member, dom, at);
      },
      s);
  for (const auto& [key, value] : o.fields) {
    require(std::ranges::find(keys, key) != keys.end(), "unknown key \"" + key + "\" in " + path);
  }
  check_rules(s, o, path);
}

template <class S>
S spec_from(const jv& o, const std::string& path) {
  S s;
  read_object(o, s, path);
  return s;
}

}  // namespace

// ---- full specs <-> jv (shared with the wire layer) -----------------

namespace detail {

jv scenario_to_jv(const scenario_spec& s) { return object_of(s); }
scenario_spec scenario_from_jv(const jv& o) { return spec_from<scenario_spec>(o, "scenario"); }

jv sim_to_jv(const sim_spec& s) { return object_of(s); }
sim_spec sim_from_jv(const jv& o) { return spec_from<sim_spec>(o, "sim"); }

jv lifetime_to_jv(const lifetime_spec& s) { return object_of(s); }
lifetime_spec lifetime_from_jv(const jv& o) { return spec_from<lifetime_spec>(o, "lifetime"); }

}  // namespace detail

std::string to_json(const scenario_file& file) {
  jv root = jv::object();
  root.add("scenario", detail::scenario_to_jv(file.scenario));
  if (file.sim) root.add("sim", detail::sim_to_jv(*file.sim));
  if (file.lifetime) root.add("lifetime", detail::lifetime_to_jv(*file.lifetime));
  std::ostringstream os;
  json::write_value(os, root, 0);
  os << '\n';
  return os.str();
}

std::string to_json(const scenario_spec& spec) {
  return to_json(scenario_file{.scenario = spec, .sim = std::nullopt});
}

scenario_file parse_scenario_json(std::string_view text) {
  try {
    const jv root = json::parse_document(text);
    require(root.k == jv::kind::object, "top level must be an object");

    scenario_file out;
    if (const jv* scenario = get(root, "scenario")) {
      json::check_keys(root, "top level", {"scenario", "sim", "lifetime"});
      out.scenario = detail::scenario_from_jv(*scenario);
      if (const jv* sim = get(root, "sim")) out.sim = detail::sim_from_jv(*sim);
      if (const jv* life = get(root, "lifetime")) out.lifetime = detail::lifetime_from_jv(*life);
    } else {
      // Bare scenario object (no "scenario"/"sim" wrapper).
      out.scenario = detail::scenario_from_jv(root);
    }
    return out;
  } catch (const std::invalid_argument& e) {
    // The generic json layer prefixes "JSON:"; scenario-file consumers
    // (and the CLI's documented error format) expect "scenario JSON:".
    const std::string_view what = e.what();
    if (what.rfind("JSON: ", 0) == 0) {
      throw std::invalid_argument("scenario " + std::string(what));
    }
    throw;
  }
}

scenario_file load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_scenario_json(buf.str());
}

void save_scenario_file(const std::string& path, const scenario_file& file) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write scenario file: " + path);
  out << to_json(file);
  if (!out) throw std::runtime_error("failed writing scenario file: " + path);
}

}  // namespace cbtc::api
