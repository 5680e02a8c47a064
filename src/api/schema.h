// The scenario schema: one field table per spec struct.
//
// `for_each_field(f, spec)` calls `f(key, member, domain[, gate])` for
// every serialized member of `spec`, once, in the order the writer
// emits them. api/serialize.cpp derives the scenario-file writer and
// parser, the allowed keys and every per-field range check from these
// tables, so adding a spec field is one member plus one table line.
// A domain is a numeric interval, `flag`, `text`, `nested` (a sub-table
// or an array of them) or a name table (canonical name, then aliases).
// A gate ties a field to the kind that owns it (written for that kind,
// rejected for any other) or, with no owner, lets the writer omit it.
// Gates are evaluated line by line, after the kind's own line is read.
#pragma once

#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>

#include "api/scenario.h"
#include "api/sim_spec.h"

namespace cbtc::api::schema {

inline constexpr double inf = std::numeric_limits<double>::infinity();

/// The legal values of one field; a number lies between `lo` and `hi`,
/// and an open end excludes its bound.
struct domain {
  enum class kind { none, flag, text, nested, number };
  kind k{kind::none};
  double lo{-inf};
  double hi{inf};
  bool lo_open{false};
  bool hi_open{false};
};

inline constexpr domain flag{domain::kind::flag};
inline constexpr domain text{domain::kind::text};
inline constexpr domain nested{domain::kind::nested};
inline constexpr domain finite{domain::kind::number, -inf, inf, true, true};
inline constexpr domain non_negative{domain::kind::number, 0.0, inf, false, true};
inline constexpr domain positive{domain::kind::number, 0.0, inf, true, true};
inline constexpr domain probability{domain::kind::number, 0.0, 1.0};
inline constexpr domain at_least_1{domain::kind::number, 1.0, inf, false, true};
inline constexpr domain u32{domain::kind::number, 0.0, 4294967295.0};
[[nodiscard]] constexpr domain open_interval(double lo, double hi) {
  return {domain::kind::number, lo, hi, true, true};
}

/// The domain of the method's "name": method_name and parse_method
/// (scenario.h) spell its kind and baseline as one name.
inline constexpr struct method_names_t {
} method_names;

template <class E>
struct enum_name {
  std::string_view name;
  E value;
};

inline constexpr enum_name<deployment_kind> deployment_names[] = {
    {"uniform", deployment_kind::uniform}, {"cluster", deployment_kind::cluster},
    {"grid", deployment_kind::grid},       {"fixed", deployment_kind::fixed},
    {"ring", deployment_kind::ring},       {"tree", deployment_kind::tree},
    {"star", deployment_kind::star}};

/// A method's name is its kind's, or for kind::baseline its baseline's
/// (method_name and parse_method, scenario.h).
inline constexpr enum_name<method_spec::kind> method_kind_names[] = {
    {"oracle", method_spec::kind::oracle}, {"protocol", method_spec::kind::protocol},
    {"stc", method_spec::kind::stc},       {"sethu-gerety", method_spec::kind::stc}};

inline constexpr enum_name<baseline_kind> baseline_names[] = {
    {"mst", baseline_kind::euclidean_mst},
    {"euclidean-mst", baseline_kind::euclidean_mst},
    {"rng", baseline_kind::relative_neighborhood},
    {"relative-neighborhood", baseline_kind::relative_neighborhood},
    {"gabriel", baseline_kind::gabriel},     {"yao", baseline_kind::yao},
    {"knn", baseline_kind::knn},             {"max-power", baseline_kind::max_power},
    {"none", baseline_kind::max_power}};

inline constexpr enum_name<radio::propagation_kind> propagation_names[] = {
    {"isotropic", radio::propagation_kind::isotropic},
    {"lognormal_shadowing", radio::propagation_kind::lognormal_shadowing},
    {"shadowing", radio::propagation_kind::lognormal_shadowing},
    {"obstacle_field", radio::propagation_kind::obstacle_field},
    {"obstacles", radio::propagation_kind::obstacle_field}};

inline constexpr enum_name<algo::growth_mode> growth_mode_names[] = {
    {"discrete", algo::growth_mode::discrete}, {"continuous", algo::growth_mode::continuous}};

inline constexpr enum_name<mobility_kind> mobility_names[] = {
    {"none", mobility_kind::none},
    {"random_waypoint", mobility_kind::random_waypoint},
    {"bouncing", mobility_kind::bouncing}};

inline constexpr enum_name<lifetime_policy> lifetime_policy_names[] = {
    {"plain_cbtc", lifetime_policy::plain_cbtc},
    {"plain", lifetime_policy::plain_cbtc},
    {"energy_balanced", lifetime_policy::energy_balanced},
    {"balanced", lifetime_policy::energy_balanced},
    {"cooperative_adaptation", lifetime_policy::cooperative_adaptation},
    {"cooperative", lifetime_policy::cooperative_adaptation}};

/// The canonical (first listed) name of `v`.
template <class E, std::size_t N>
[[nodiscard]] constexpr std::string_view name_of(const enum_name<E> (&table)[N], E v) {
  for (const enum_name<E>& e : table) {
    if (e.value == v) return e.name;
  }
  return table[0].name;
}

/// The value spelled `name` (canonical or alias); throws
/// std::invalid_argument listing every accepted name.
template <class E, std::size_t N>
[[nodiscard]] E parse_name(const enum_name<E> (&table)[N], std::string_view name) {
  std::string accepted;
  for (const enum_name<E>& e : table) {
    if (e.name == name) return e.value;
    accepted += (accepted.empty() ? "" : " | ") + std::string(e.name);
  }
  throw std::invalid_argument("unknown name '" + std::string(name) + "' (expected " + accepted +
                              ")");
}

struct gate {
  bool open{true};         ///< written, and accepted if owned, for this spec
  std::string_view owner;  ///< the kind that owns the field; empty = any kind
};

/// A kind-specific field: written and accepted only while `owns`.
[[nodiscard]] constexpr gate only_for(bool owns, std::string_view owner) { return {owns, owner}; }

/// A field of every kind that the writer omits unless `write`.
[[nodiscard]] constexpr gate written_if(bool write) { return {write, {}}; }

template <class S, class T>
concept spec_of = std::same_as<std::remove_const_t<S>, T>;

// ---- the tables ----------------------------------------------------

void for_each_field(auto&& f, spec_of<deployment_spec> auto& d) {
  f("kind", d.kind, deployment_names);
  f("nodes", d.nodes, at_least_1);
  f("region_side", d.region_side, positive);
  f("clusters", d.clusters, at_least_1);
  f("cluster_sigma", d.cluster_sigma, positive);
  f("grid_jitter", d.grid_jitter, finite);  // <= 0: the exact lattice
  f("tree_branching", d.tree_branching, at_least_1,
    only_for(d.kind == deployment_kind::tree, "tree"));
  f("star_arms", d.star_arms, at_least_1, only_for(d.kind == deployment_kind::star, "star"));
  f("positions", d.fixed, finite, only_for(d.kind == deployment_kind::fixed, "fixed"));
}

void for_each_field(auto&& f, spec_of<radio::obstacle> auto& o) {
  f("box", o.box, finite);  // [x0, y0, x1, y1]
  f("loss_db", o.loss_db, positive);
}

void for_each_field(auto&& f, spec_of<propagation_spec> auto& p) {
  using enum radio::propagation_kind;
  const std::string_view shadowing = "lognormal_shadowing";
  f("kind", p.kind, propagation_names);
  f("sigma_db", p.sigma_db, non_negative, only_for(p.kind == lognormal_shadowing, shadowing));
  f("clamp_db", p.clamp_db, non_negative, only_for(p.kind == lognormal_shadowing, shadowing));
  f("seed", p.seed, non_negative, only_for(p.kind == lognormal_shadowing, shadowing));
  f("obstacles", p.obstacles, nested, only_for(p.kind == obstacle_field, "obstacle_field"));
}

void for_each_field(auto&& f, spec_of<radio_spec> auto& r) {
  f("path_loss_exponent", r.path_loss_exponent, at_least_1);
  f("max_range", r.max_range, positive);
  f("propagation", r.propagation, nested,
    written_if(r.propagation.kind != radio::propagation_kind::isotropic));
}

void for_each_field(auto&& f, spec_of<method_spec> auto& m) {
  f("name", m, method_names);
  f("yao_cones", m.yao_cones, at_least_1, only_for(method_name(m) == "yao", "yao"));
  f("knn_k", m.knn_k, at_least_1, only_for(method_name(m) == "knn", "knn"));
}

void for_each_field(auto&& f, spec_of<algo::cbtc_params> auto& c) {
  // The cone degree and Increase(p) = factor * p of the paper's Fig. 1.
  f("alpha", c.alpha, open_interval(0.0, 2.0 * geom::pi));
  f("mode", c.mode, growth_mode_names);
  f("initial_power", c.initial_power, finite);  // <= 0: the default p0
  f("increase_factor", c.increase_factor, open_interval(1.0, inf));
  f("intra_threads", c.intra_threads, u32);  // 0: hardware concurrency
  f("relabel_min_nodes", c.relabel_min_nodes, non_negative);
}

void for_each_field(auto&& f, spec_of<algo::optimization_set> auto& o) {
  f("shrink_back", o.shrink_back, flag);
  f("asymmetric_removal", o.asymmetric_removal, flag);
  f("pairwise_removal", o.pairwise_removal, flag);
  f("gain_aware", o.gain_aware, flag);
}

void for_each_field(auto&& f, spec_of<radio::channel_params> auto& c) {
  f("drop_prob", c.drop_prob, probability);
  f("dup_prob", c.dup_prob, probability);
  f("base_delay", c.base_delay, non_negative);
  f("delay_per_unit", c.delay_per_unit, non_negative);
  f("jitter_max", c.jitter_max, non_negative);
}

void for_each_field(auto&& f, spec_of<proto::protocol_run_config> auto& p) {
  f("round_timeout", p.agent.round_timeout, positive);
  f("reply_margin", p.agent.reply_margin, positive);
  f("retries_per_level", p.agent.retries_per_level, u32);
  f("direction_noise", p.direction_noise, non_negative);
  f("max_events", p.max_events, non_negative);
  f("channel", p.channel, nested);
}

void for_each_field(auto&& f, spec_of<metric_options> auto& m) {
  f("stretch", m.stretch, flag);
  f("stretch_samples", m.stretch_samples, at_least_1);
  f("interference", m.interference, flag);
  f("robustness", m.robustness, flag);
}

void for_each_field(auto&& f, spec_of<post_options> auto& p) {
  f("bridge_augmentation", p.bridge_augmentation, flag);
}

void for_each_field(auto&& f, spec_of<scenario_spec> auto& s) {
  f("name", s.name, text);
  f("deployment", s.deploy, nested);
  f("radio", s.radio, nested);
  f("method", s.method, nested);
  f("cbtc", s.cbtc, nested);
  f("optimizations", s.opts, nested);
  f("protocol", s.protocol, nested);
  f("base_seed", s.base_seed, non_negative);
  f("metrics", s.metrics, nested);
  f("post", s.post, nested);
}

void for_each_field(auto&& f, spec_of<beacon_spec> auto& b) {
  f("interval", b.interval, positive);
  f("miss_limit", b.miss_limit, u32);
  f("achange_threshold", b.achange_threshold, non_negative);
  f("shrink_back", b.shrink_back, flag);
}

void for_each_field(auto&& f, spec_of<mobility_spec> auto& m) {
  f("kind", m.kind, mobility_names);
  f("min_speed", m.min_speed, non_negative);
  f("max_speed", m.max_speed, non_negative);
  f("pause", m.pause, non_negative);
  f("tick", m.tick, positive);
  f("start", m.start, non_negative);
  f("until", m.until, non_negative);  // 0: the horizon
}

void for_each_field(auto&& f, spec_of<failure_event> auto& e) {
  f("node", e.node, u32);
  f("time", e.time, non_negative);
  f("restart", e.restart, flag);
}

void for_each_field(auto&& f, spec_of<failure_spec> auto& s) {
  f("random_crashes", s.random_crashes, non_negative);
  f("window", std::tie(s.window_begin, s.window_end), non_negative);
  f("events", s.events, nested);
}

void for_each_field(auto&& f, spec_of<partition_spec> auto& p) {
  f("regions", p.regions, u32);  // 0: auto, 1: serial
  f("min_nodes", p.min_nodes, non_negative);
}

void for_each_field(auto&& f, spec_of<traffic_spec> auto& t) {
  f("period", t.period, non_negative);  // 0: traffic off
  f("sink", t.sink, u32);
  f("start", t.start, non_negative);  // 0: settle
  f("until", t.until, non_negative);  // 0: the horizon
  f("service_time", t.service_time, positive);
  f("route_refresh", t.route_refresh, positive);
  f("queue_capacity", t.queue_capacity, at_least_1);
}

void for_each_field(auto&& f, spec_of<sim_spec> auto& s) {
  f("horizon", s.horizon, positive);
  f("settle", s.settle, non_negative);
  f("sample_every", s.sample_every, non_negative);  // 0: settle and horizon only
  f("beacons", s.beacons, nested);
  f("mobility", s.mobility, nested);
  f("failures", s.failures, nested);
  f("partition", s.partition, nested, written_if(s.partition != partition_spec{}));
  f("traffic", s.traffic, nested, written_if(s.traffic.enabled()));
}

void for_each_field(auto&& f, spec_of<lifetime_spec> auto& l) {
  f("battery_rounds", l.battery_rounds, positive);
  f("flows", l.flows, non_negative);
  f("max_rounds", l.max_rounds, non_negative);
  f("policy", l.policy, lifetime_policy_names, written_if(l.policy != lifetime_policy::plain_cbtc));
  f("convergecast", l.convergecast, flag, written_if(l.convergecast));
  f("sink", l.sink, u32, written_if(l.sink != 0));
}

}  // namespace cbtc::api::schema
