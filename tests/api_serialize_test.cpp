// JSON scenario files: a saved scenario_spec + sim_spec must round-trip
// field for field, sparse files fall back to spec defaults, and
// malformed input (bad JSON, unknown keys, wrong types) fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "api/api.h"
#include "api/json.h"
#include "api/wire.h"

namespace cbtc::api {
namespace {

/// Every serialized field off its default. Kind-specific fields are
/// written for their own kind only, so busy_files() adds the kinds
/// busy_file() does not pick.
scenario_file busy_file() {
  scenario_file f;
  scenario_spec& s = f.scenario;
  s.name = "round_trip";
  s.deploy = {.kind = deployment_kind::tree,
              .nodes = 77,
              .region_side = 1234.5,
              .clusters = 3,
              .cluster_sigma = 99.5,
              .grid_jitter = 0.25,
              .tree_branching = 3};
  s.radio = {.path_loss_exponent = 4.0,
             .max_range = 321.0,
             .propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                             .sigma_db = 5.5,
                             .clamp_db = 11.0,
                             .seed = 0xfeedfacecafebeefULL}};
  s.method = method_spec::of_baseline(baseline_kind::knn);
  s.method.knn_k = 5;
  s.cbtc = {.alpha = 2.0,
            .mode = algo::growth_mode::continuous,
            .initial_power = 17.5,
            .increase_factor = 3.0,
            .intra_threads = 3,
            .relabel_min_nodes = 99};
  s.opts = {.shrink_back = true,
            .asymmetric_removal = true,
            .pairwise_removal = true,
            .gain_aware = true};
  s.protocol.agent.round_timeout = 0.75;
  s.protocol.agent.reply_margin = 1.25;
  s.protocol.agent.retries_per_level = 4;
  s.protocol.direction_noise = 0.01;
  s.protocol.max_events = 123456;
  s.protocol.channel = {.drop_prob = 0.05,
                        .dup_prob = 0.01,
                        .base_delay = 0.02,
                        .delay_per_unit = 0.001,
                        .jitter_max = 0.03};
  s.base_seed = 0xdeadbeefcafef00dULL;  // must survive as an exact u64
  s.metrics = {.stretch = false, .stretch_samples = 5, .interference = false, .robustness = false};
  s.post.bridge_augmentation = true;

  sim_spec dyn;
  dyn.horizon = 99.0;
  dyn.settle = 11.0;
  dyn.sample_every = 3.5;
  dyn.beacons = {.interval = 0.8, .miss_limit = 5, .achange_threshold = 0.1, .shrink_back = false};
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 2.5,
                  .max_speed = 7.5,
                  .pause = 1.5,
                  .tick = 0.25,
                  .start = 10.0,
                  .until = 80.0};
  dyn.partition = {.regions = 9, .min_nodes = 2048};
  dyn.failures.random_crashes = 6;
  dyn.failures.window_begin = 15.0;
  dyn.failures.window_end = 45.0;
  dyn.failures.events.push_back({.node = 12, .time = 33.0, .restart = false});
  dyn.failures.events.push_back({.node = 12, .time = 44.0, .restart = true});
  dyn.traffic = {.period = 1.5,
                 .sink = 4,
                 .start = 12.0,
                 .until = 90.0,
                 .service_time = 0.1,
                 .route_refresh = 2.0,
                 .queue_capacity = 12};
  f.sim = dyn;
  f.lifetime = lifetime_spec{.battery_rounds = 17.5,
                             .flows = 12,
                             .max_rounds = 3000,
                             .policy = lifetime_policy::cooperative_adaptation,
                             .convergecast = true,
                             .sink = 4};
  return f;
}

/// busy_file() plus the kinds it does not pick: star, yao and an
/// obstacle field, then a fixed deployment.
std::vector<scenario_file> busy_files() {
  std::vector<scenario_file> files(3, busy_file());
  deployment_spec& star = files[1].scenario.deploy;
  star.kind = deployment_kind::star;
  star.tree_branching = deployment_spec{}.tree_branching;
  star.star_arms = 7;
  files[1].scenario.method = method_spec::of_baseline(baseline_kind::yao);
  files[1].scenario.method.yao_cones = 8;
  files[1].scenario.radio.propagation = {
      .kind = radio::propagation_kind::obstacle_field,
      .obstacles = {{.box = {{1.5, 2.5}, {30.0, 40.0}}, .loss_db = 7.25},
                    {.box = {{-10.0, -20.0}, {-1.0, -2.0}}, .loss_db = 3.0}}};
  files[2].scenario.deploy = deployment_spec::fixed_positions({{0.0, 0.0}, {100.5, -3.25}});
  return files;
}

TEST(ApiSerialize, RoundTripPreservesEveryField) {
  for (const scenario_file& original : busy_files()) {
    const std::string text = to_json(original);
    EXPECT_TRUE(parse_scenario_json(text) == original) << text;
  }
}

TEST(ApiSerialize, FixedPositionsRoundTrip) {
  scenario_file f;
  f.scenario.deploy = deployment_spec::fixed_positions(
      {{0.0, 0.0}, {100.5, -3.25}, {7.0, 42.0}});
  const scenario_file parsed = parse_scenario_json(to_json(f));
  ASSERT_EQ(parsed.scenario.deploy.kind, deployment_kind::fixed);
  ASSERT_EQ(parsed.scenario.deploy.fixed.size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.scenario.deploy.fixed[1].x, 100.5);
  EXPECT_DOUBLE_EQ(parsed.scenario.deploy.fixed[1].y, -3.25);
  EXPECT_EQ(parsed.scenario.deploy.nodes, 3u);
  EXPECT_FALSE(parsed.sim.has_value());
}

TEST(ApiSerialize, SparseFilesFallBackToDefaults) {
  const scenario_file f = parse_scenario_json(R"({
    "scenario": {"deployment": {"nodes": 12}, "method": "gabriel"},
    "sim": {"horizon": 50}
  })");
  EXPECT_EQ(f.scenario.deploy.nodes, 12u);
  EXPECT_EQ(f.scenario.deploy.kind, deployment_kind::uniform);
  EXPECT_EQ(f.scenario.method.k, method_spec::kind::baseline);
  EXPECT_EQ(f.scenario.method.baseline, baseline_kind::gabriel);
  EXPECT_DOUBLE_EQ(f.scenario.radio.max_range, scenario_spec{}.radio.max_range);
  ASSERT_TRUE(f.sim.has_value());
  EXPECT_DOUBLE_EQ(f.sim->horizon, 50.0);
  EXPECT_DOUBLE_EQ(f.sim->settle, sim_spec{}.settle);
}

TEST(ApiSerialize, StcMethodRoundTrips) {
  // String form in, canonical object form out, stable thereafter.
  const scenario_file f = parse_scenario_json(R"({"scenario": {"method": "stc"}})");
  EXPECT_EQ(f.scenario.method.k, method_spec::kind::stc);
  const std::string json = to_json(f);
  const scenario_file again = parse_scenario_json(json);
  EXPECT_EQ(again.scenario.method.k, method_spec::kind::stc);
  EXPECT_EQ(to_json(again), json);
  // The gain_aware optimization knob rides the same round trip.
  const scenario_file g = parse_scenario_json(
      R"({"scenario": {"optimizations": {"shrink_back": true, "gain_aware": true}}})");
  EXPECT_TRUE(g.scenario.opts.gain_aware);
  EXPECT_TRUE(parse_scenario_json(to_json(g)).scenario.opts.gain_aware);
}

TEST(ApiSerialize, MalformedMethodRejected) {
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": "carrier-pigeon"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": {"name": "carrier-pigeon"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": {"typo": "stc"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"method": 7}})"), std::invalid_argument);
}

TEST(ApiSerialize, BareScenarioObjectIsAccepted) {
  const scenario_file f = parse_scenario_json(R"({"name": "bare", "base_seed": 5})");
  EXPECT_EQ(f.scenario.name, "bare");
  EXPECT_EQ(f.scenario.base_seed, 5u);
  EXPECT_FALSE(f.sim.has_value());
}

TEST(ApiSerialize, MalformedInputFailsLoudly) {
  EXPECT_THROW(parse_scenario_json("{"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json("[1, 2]"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"typo_key": 1}})"), std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {}, "sim": {"mobility": {"kind": "warp"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"cbtc": {"mode": "sideways"}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"base_seed": "not-a-number"}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {}, "extra": 1})"), std::invalid_argument);
  // Fractional counts must be rejected, not truncated.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 12.7}}})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"beacons": {"miss_limit": 2.5}}})"),
      std::invalid_argument);
  // Unknown or fractional partition knobs fail loudly too.
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"partition": {"lanes": 4}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {}, "sim": {"partition": {"regions": 4.5}}})"),
      std::invalid_argument);
  // A zero or negative beacon interval or mobility tick would
  // reschedule its timer at the same instant forever, and a cadence
  // that fits more than max_periods_per_run periods into the horizon
  // would run (near) forever; a speed range or crash window with
  // begin > end breaks std::uniform_real_distribution.
  for (const char* bad : {R"({"beacons": {"interval": 0}})", R"({"beacons": {"interval": -1}})",
                          R"({"mobility": {"kind": "random_waypoint", "tick": 0}})",
                          R"({"mobility": {"kind": "bouncing", "tick": -0.5}})",
                          R"({"mobility": {"min_speed": 5, "max_speed": 2}})",
                          R"({"sample_every": 1e-9})", R"({"beacons": {"interval": 1e-9}})",
                          R"({"horizon": 1e300})",
                          R"({"mobility": {"kind": "bouncing", "tick": 1e-9}})",
                          R"({"traffic": {"period": 1e-9}})",
                          R"({"traffic": {"period": 1, "route_refresh": 1e-9}})",
                          R"({"failures": {"window": [40, 20]}})"}) {
    EXPECT_THROW(parse_scenario_json(std::string(R"({"scenario": {}, "sim": )") + bad + "}"),
                 std::invalid_argument)
        << bad;
  }
  // Exactly max_periods_per_run periods fit; a tick is no cadence
  // while nothing moves.
  EXPECT_NO_THROW((void)parse_scenario_json(R"({"scenario": {}, "sim": {
      "horizon": 1e6, "sample_every": 1, "mobility": {"tick": 1e-9}}})"));
  // Positions without kind "fixed", and any other kind-specific field
  // on a foreign kind, would silently run a different network than
  // the file describes.
  for (const char* bad : {R"({"deployment": {"positions": [[0, 0]]}})",
                          R"({"deployment": {"kind": "uniform", "tree_branching": 3}})",
                          R"({"method": {"name": "protocol", "knn_k": 4}})"}) {
    EXPECT_THROW(parse_scenario_json(std::string(R"({"scenario": )") + bad + "}"),
                 std::invalid_argument)
        << bad;
  }
  // Values outside their field's domain, each of which ran (or crashed,
  // or was cast down to 32 bits) before the field tables.
  const char* const out_of_domain[] = {
      R"({"scenario": {"deployment": {"nodes": 0}}, "lifetime": {}})",
      R"({"scenario": {"deployment": {"region_side": -100}}})",
      R"({"scenario": {"deployment": {"clusters": 0}}})",
      R"({"scenario": {"deployment": {"kind": "tree", "tree_branching": 0}}})",
      R"({"scenario": {"deployment": {"kind": "star", "star_arms": 0}}})",
      R"({"scenario": {"method": {"name": "yao", "yao_cones": 0}}})",
      R"({"scenario": {"method": {"name": "knn", "knn_k": 0}}})",
      R"({"scenario": {"protocol": {"round_timeout": 0}}})",
      R"({"scenario": {"protocol": {"reply_margin": -1}}})",
      R"({"scenario": {"protocol": {"direction_noise": -1}}})",
      R"({"scenario": {"protocol": {"retries_per_level": 4294967299}}})",
      R"({"scenario": {"cbtc": {"intra_threads": 4294967299}}})",
      R"({"scenario": {}, "sim": {"horizon": -1}})",
      R"({"scenario": {}, "sim": {"mobility": {"pause": -1}}})",
      R"({"scenario": {}, "sim": {"beacons": {"miss_limit": 4294967299}}})",
      R"({"scenario": {}, "sim": {"partition": {"regions": 4294967299}}})",
      R"({"scenario": {}, "sim": {"traffic": {"period": 1, "sink": 4294967299}}})",
      R"({"scenario": {}, "sim": {"failures": {"events": [{"node": 4294967299}]}}})",
      R"({"scenario": {}, "lifetime": {"sink": 4294967299}})",
  };
  for (const char* bad : out_of_domain) {
    EXPECT_THROW(parse_scenario_json(bad), std::invalid_argument) << bad;
  }
  // A repeated key would silently run its first value.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 30, "nodes": 70}}})"),
               std::invalid_argument);
  // Exact integers in scientific notation are still fine.
  const scenario_file sci =
      parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 1e2}}})");
  EXPECT_EQ(sci.scenario.deploy.nodes, 100u);
  // A uint64 cannot hold 2^64 or more, in any spelling; the largest
  // values below it (as an integer literal and as the largest double
  // below 2^64) still load exactly.
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"deployment": {"nodes": 1e30}}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"base_seed": 18446744073709551616}})"),
               std::invalid_argument);
  EXPECT_THROW(parse_scenario_json(R"({"scenario": {"base_seed": 1.8446744073709552e19}})"),
               std::invalid_argument);
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {"base_seed": 18446744073709551615}})")
                .scenario.base_seed,
            18446744073709551615ull);
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {"base_seed": 1.8446744073709549568e19}})")
                .scenario.base_seed,
            18446744073709549568ull);
}

/// A stretch sampling parameter of 0 selects no sources. Scenario files
/// and cbtc_serve batch requests (the same parser) must both reject it
/// with std::invalid_argument rather than hand it to engine::run.
TEST(ApiSerialize, ZeroStretchSamplesRejected) {
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"metrics": {"stretch": true, "stretch_samples": 0}}})"),
      std::invalid_argument);
  const scenario_file one =
      parse_scenario_json(R"({"scenario": {"metrics": {"stretch_samples": 1}}})");
  EXPECT_EQ(one.scenario.metrics.stretch_samples, 1u);

  wire::batch_request req;
  req.scenario = get_scenario("paper_table1");
  req.scenario.metrics.stretch_samples = 0;
  req.seeds = {0, 4};
  req.blocks = {0, 1};
  const wire::message m = wire::decode_message(wire::encode_batch_request(req));
  EXPECT_THROW((void)wire::decode_batch_request(m), std::invalid_argument);
}

/// Nesting is capped at json::max_depth, so a hostile document fails
/// with std::invalid_argument instead of overflowing the stack.
TEST(ApiSerialize, DeepNestingIsRejected) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)json::parse_document(nested(json::max_depth)));
  EXPECT_THROW((void)json::parse_document(nested(json::max_depth + 1)), std::invalid_argument);
  EXPECT_THROW((void)parse_scenario_json(R"({"scenario": {"name": )" + nested(20000) + "}}"),
               std::invalid_argument);
}

TEST(ApiSerialize, PropagationRoundTripsAllKinds) {
  // Shadowing: every knob, including an exact-u64 seed.
  scenario_file f;
  f.scenario.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                                  .sigma_db = 5.5,
                                  .clamp_db = 11.0,
                                  .seed = 0xfeedfacecafebeefULL};
  scenario_file parsed = parse_scenario_json(to_json(f));
  EXPECT_EQ(parsed.scenario.radio.propagation.kind,
            radio::propagation_kind::lognormal_shadowing);
  EXPECT_DOUBLE_EQ(parsed.scenario.radio.propagation.sigma_db, 5.5);
  EXPECT_DOUBLE_EQ(parsed.scenario.radio.propagation.clamp_db, 11.0);
  EXPECT_EQ(parsed.scenario.radio.propagation.seed, 0xfeedfacecafebeefULL);

  // Obstacles: boxes and losses survive exactly.
  f.scenario.radio.propagation = {};
  f.scenario.radio.propagation.kind = radio::propagation_kind::obstacle_field;
  f.scenario.radio.propagation.obstacles = {
      {.box = {{1.5, 2.5}, {30.0, 40.0}}, .loss_db = 7.25},
      {.box = {{-10.0, -20.0}, {-1.0, -2.0}}, .loss_db = 3.0},
  };
  parsed = parse_scenario_json(to_json(f));
  EXPECT_EQ(parsed.scenario.radio.propagation.kind, radio::propagation_kind::obstacle_field);
  ASSERT_EQ(parsed.scenario.radio.propagation.obstacles.size(), 2u);
  EXPECT_EQ(parsed.scenario.radio.propagation.obstacles[0],
            f.scenario.radio.propagation.obstacles[0]);
  EXPECT_EQ(parsed.scenario.radio.propagation.obstacles[1],
            f.scenario.radio.propagation.obstacles[1]);

  // Isotropic is the default and is never written out.
  f.scenario.radio.propagation = {};
  EXPECT_EQ(to_json(f).find("propagation"), std::string::npos);
  EXPECT_EQ(parse_scenario_json(to_json(f)).scenario.radio.propagation.kind,
            radio::propagation_kind::isotropic);
}

/// Property/fuzz pass: a pseudo-random walk over the spec space. The
/// invariant is idempotence at the JSON level — parse(to_json(x))
/// serializes to the identical string — which catches any field that
/// is written but not read, read but not written, or lossily encoded.
TEST(ApiSerialize, RandomSpecsRoundTripIdempotently) {
  std::mt19937_64 rng(20260729);
  const auto pick_double = [&](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  for (int round = 0; round < 200; ++round) {
    scenario_file f;
    scenario_spec& s = f.scenario;
    s.name = "fuzz_" + std::to_string(round);
    s.deploy.kind = static_cast<deployment_kind>(rng() % 3);  // fixed handled elsewhere
    s.deploy.nodes = 1 + rng() % 500;
    s.deploy.region_side = pick_double(10.0, 5000.0);
    s.deploy.clusters = 1 + rng() % 9;
    s.deploy.cluster_sigma = pick_double(1.0, 400.0);
    s.deploy.grid_jitter = pick_double(0.0, 1.0);
    s.radio.path_loss_exponent = pick_double(1.0, 6.0);
    s.radio.max_range = pick_double(10.0, 2000.0);
    switch (rng() % 3) {
      case 0:
        break;  // isotropic
      case 1:
        s.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                               .sigma_db = pick_double(0.0, 12.0),
                               .clamp_db = pick_double(0.0, 20.0),
                               .seed = rng()};
        break;
      default: {
        s.radio.propagation.kind = radio::propagation_kind::obstacle_field;
        const std::size_t count = 1 + rng() % 5;
        for (std::size_t i = 0; i < count; ++i) {
          const double x0 = pick_double(-100.0, 1000.0);
          const double y0 = pick_double(-100.0, 1000.0);
          s.radio.propagation.obstacles.push_back(
              {.box = {{x0, y0}, {x0 + pick_double(0.0, 500.0), y0 + pick_double(0.0, 500.0)}},
               .loss_db = pick_double(0.1, 30.0)});
        }
        break;
      }
    }
    switch (rng() % 3) {
      case 0:
        s.method = method_spec::protocol();
        break;
      case 1:
        s.method = method_spec::stc();
        break;
      default:
        s.method = method_spec::of_baseline(static_cast<baseline_kind>(rng() % 6));
        break;
    }
    s.opts.gain_aware = rng() % 2 == 0;
    s.cbtc.alpha = pick_double(0.1, 6.0);
    s.cbtc.increase_factor = pick_double(1.1, 4.0);
    s.cbtc.intra_threads = static_cast<unsigned>(rng() % 9);
    s.base_seed = rng();
    s.metrics.stretch = rng() % 2 == 0;
    s.metrics.stretch_samples = 1 + rng() % 64;  // 0 is rejected
    if (rng() % 2 == 0) {
      sim_spec dyn;
      dyn.horizon = pick_double(1.0, 500.0);
      dyn.settle = pick_double(0.0, 50.0);
      dyn.partition.regions = static_cast<std::uint32_t>(rng() % 17);
      dyn.partition.min_nodes = rng() % 10000;
      dyn.mobility.kind = static_cast<mobility_kind>(rng() % 3);
      dyn.mobility.max_speed = pick_double(1.0, 20.0);  // below min_speed (1) is rejected
      dyn.failures.random_crashes = rng() % 10;
      f.sim = dyn;
    }

    const std::string once = to_json(f);
    const std::string twice = to_json(parse_scenario_json(once));
    ASSERT_EQ(once, twice) << "round " << round;
  }
}

TEST(ApiSerialize, MalformedPropagationFailsLoudly) {
  // Unknown kind.
  EXPECT_THROW(parse_scenario_json(
                   R"({"scenario": {"radio": {"propagation": {"kind": "tachyonic"}}}})"),
               std::invalid_argument);
  // Unknown key inside the propagation object.
  EXPECT_THROW(parse_scenario_json(
                   R"({"scenario": {"radio": {"propagation": {"kind": "isotropic", "x": 1}}}})"),
               std::invalid_argument);
  // Wrong type for sigma_db.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "sigma_db": "big"}}}})"),
      std::invalid_argument);
  // Shadowing-only keys on a foreign kind are rejected, not silently
  // dropped (a stray sigma_db almost always means the kind is wrong).
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "isotropic", "sigma_db": 6}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles", "seed": 3,
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  // Negative sigma / clamp.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "sigma_db": -4}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "shadowing", "clamp_db": -1}}}})"),
      std::invalid_argument);
  // Obstacles on a non-obstacle kind.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "isotropic",
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  // Obstacle box with the wrong arity, inverted corners, bad loss.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [0, 0, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [5, 0, 1, 1], "loss_db": 3}]}}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles",
              "obstacles": [{"box": [0, 0, 1, 1], "loss_db": 0}]}}}})"),
      std::invalid_argument);
  // Empty obstacle list for an obstacle field.
  EXPECT_THROW(
      parse_scenario_json(
          R"({"scenario": {"radio": {"propagation": {"kind": "obstacles", "obstacles": []}}}})"),
      std::invalid_argument);
  // The short aliases parse.
  EXPECT_EQ(parse_scenario_json(
                R"({"scenario": {"radio": {"propagation": {"kind": "shadowing"}}}})")
                .scenario.radio.propagation.kind,
            radio::propagation_kind::lognormal_shadowing);
}

/// Special values the spec structs document stay legal.
TEST(ApiSerialize, DocumentedSpecialValuesAreAccepted) {
  const scenario_file f = parse_scenario_json(R"({
    "scenario": {"deployment": {"kind": "grid", "grid_jitter": 0},
                 "cbtc": {"initial_power": -1, "intra_threads": 0, "relabel_min_nodes": 0}},
    "sim": {"sample_every": 0, "partition": {"regions": 1},
            "mobility": {"kind": "bouncing", "until": 0},
            "traffic": {"period": 0, "start": 0, "until": 0}}
  })");
  EXPECT_EQ(f.scenario.cbtc.intra_threads, 0u);
  ASSERT_TRUE(f.sim.has_value());
  EXPECT_FALSE(f.sim->traffic.enabled());
  EXPECT_EQ(parse_scenario_json(R"({"scenario": {}, "sim": {"partition": {"regions": 0}}})")
                .sim->partition.regions,
            0u);
}

// ---- the field tables, walked ----------------------------------------

/// One field of a spec table: where it sits and what it admits.
struct table_field {
  std::vector<std::string> path;  ///< object keys and array indices from the file root
  std::string where;              ///< the path as error messages spell it
  std::optional<schema::domain> dom;  ///< empty for a name table
  bool gated{false};
};

template <class T>
concept has_table = requires(const T& t) { schema::for_each_field([](auto&&...) {}, t); };
template <class T>
concept table_array = requires { typename T::value_type; } && has_table<typename T::value_type>;

template <class S>
void collect(const S& spec, const std::vector<std::string>& path, const std::string& where,
             std::vector<table_field>& out) {
  schema::for_each_field(
      [&](std::string_view key, const auto& member, const auto& dom, schema::gate g = {}) {
        table_field field{path, where + "." + std::string(key), std::nullopt, !g.owner.empty()};
        field.path.emplace_back(key);
        using T = std::remove_cvref_t<decltype(member)>;
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(dom)>, schema::domain>) {
          field.dom = dom;
          EXPECT_NE(dom.k, schema::domain::kind::none) << field.where << " has no domain";
          if (dom.k == schema::domain::kind::nested) {
            if constexpr (has_table<T>) {
              collect(member, field.path, field.where, out);
            } else if constexpr (table_array<T>) {
              std::vector<std::string> element = field.path;
              element.emplace_back("0");
              collect(typename T::value_type{}, element, field.where + "[0]", out);
            }
          }
        }
        out.push_back(field);
      },
      spec);
}

/// The node at `path` (object keys, or indices into arrays), if any.
json::jv* find(json::jv& root, const std::vector<std::string>& path) {
  json::jv* at = &root;
  for (const std::string& step : path) {
    if (at->k == json::jv::kind::array) {
      const std::size_t i = std::stoul(step);
      if (i >= at->items.size()) return nullptr;
      at = &at->items[i];
      continue;
    }
    const auto it = std::ranges::find(at->fields, step, [](const auto& kv) { return kv.first; });
    if (it == at->fields.end()) return nullptr;
    at = &it->second;
  }
  return at;
}

/// The literals just outside a field's domain, and one of a wrong type.
std::vector<std::string> violations(const table_field& field) {
  const auto literal = [](double x) {
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof(buf), x).ptr);
  };
  if (!field.dom) return {"\"bogus\"", "7"};
  const schema::domain& d = *field.dom;
  switch (d.k) {
    case schema::domain::kind::number: {
      std::vector<std::string> out = {"\"bogus\""};
      if (std::isfinite(d.lo)) out.push_back(literal(d.lo_open ? d.lo : d.lo - 1.0));
      if (std::isfinite(d.hi)) out.push_back(literal(d.hi_open ? d.hi : d.hi + 1.0));
      return out;
    }
    case schema::domain::kind::flag: return {"1", "\"bogus\""};
    default: return {"7"};
  }
}

/// Walks every field of every spec table and feeds each the values just
/// outside its domain (0 or -1 at the bounds, 2^32 for u32 fields,
/// "bogus" for names, a wrong type for every field) and, for a
/// kind-specific field, its key under a foreign kind. Each must be
/// rejected with the field's path in the message.
TEST(ApiSerialize, EveryTableFieldRejectsValuesOutsideItsDomain) {
  std::vector<table_field> fields;
  collect(scenario_spec{}, {"scenario"}, "scenario", fields);
  collect(sim_spec{}, {"sim"}, "sim", fields);
  collect(lifetime_spec{}, {"lifetime"}, "lifetime", fields);
  std::vector<json::jv> bases;
  for (const scenario_file& f : busy_files()) bases.push_back(json::parse_document(to_json(f)));

  const auto expect_rejected = [](const json::jv& doc, const std::string& where) {
    std::ostringstream text;
    json::write_value(text, doc, 0);
    try {
      (void)parse_scenario_json(text.str());
      ADD_FAILURE() << where << " accepted in\n" << text.str();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
    }
  };
  std::size_t rejected = 0;
  for (const table_field& field : fields) {
    const auto base =
        std::ranges::find_if(bases, [&](json::jv& b) { return find(b, field.path) != nullptr; });
    ASSERT_NE(base, bases.end()) << "no busy file writes " << field.where;
    for (const std::string& bad : violations(field)) {
      json::jv doc = *base;
      json::jv* slot = find(doc, field.path);
      // Number pairs and boxes: the violation goes into the first entry.
      while (field.dom && field.dom->k == schema::domain::kind::number &&
             slot->k == json::jv::kind::array) {
        slot = &slot->items.front();
      }
      *slot = json::parse_document(bad);
      expect_rejected(doc, field.where);
      ++rejected;
    }
    if (field.gated) {
      const std::vector<std::string> parent(field.path.begin(), field.path.end() - 1);
      const auto foreign = std::ranges::find_if(bases, [&](json::jv& b) {
        return find(b, parent) != nullptr && find(b, field.path) == nullptr;
      });
      ASSERT_NE(foreign, bases.end()) << "no busy file omits " << field.where;
      json::jv doc = *foreign;
      find(doc, parent)->add(field.path.back(), *find(*base, field.path));
      expect_rejected(doc, field.where);
      ++rejected;
    }
  }
  EXPECT_GT(rejected, fields.size());
}

/// 64-bit FNV-1a: pins an exact byte string in one table line.
std::uint64_t digest(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/// The bytes every preset, example file and batch request serializes
/// to, pinned so a change to the writer cannot move them unnoticed;
/// and every preset reads back as itself.
TEST(ApiSerialize, GoldenBytesArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"dense_sensor_field", 0x10def6b75fb639acULL},
      {"figure6", 0xa2e524240c53f79fULL},
      {"grid_mesh", 0x13c7c1a0bdbd4cb7ULL},
      {"paper_basic", 0xe1700a349f894d8eULL},
      {"paper_protocol", 0x7bbfda7f28e9e19aULL},
      {"paper_table1", 0x5ebec687eda334faULL},
      {"shadowed_field", 0x196cadc96ee2eb58ULL},
      {"shadowed_field_stc", 0xab458f70d22484a5ULL},
      {"sparse_adhoc", 0x5b6a78037b9a9c7ULL},
      {"urban_obstacles", 0x7bcee933a10f9494ULL},
      {"urban_obstacles_stc", 0x8df698b9279555c9ULL},
      {"convergecast_grid", 0x72cc4ac79566e84bULL},
      {"crash_recovery", 0x31227ec4423a682bULL},
      {"dense_mobile_field", 0x904088114ba74fcbULL},
      {"mobile_churn", 0xdb2767b41992994dULL},
      {"shadowed_field_mobile", 0x4343ac5953100f4bULL},
      {"urban_obstacles_churn", 0x5eca75fc33c6d9faULL},
      {"examples/convergecast_grid", 0x72cc4ac79566e84bULL},
      {"examples/mobile_churn", 0xdf5dbb1f29695f32ULL},
      {"examples/sensor_attrition", 0x673a09786856d564ULL},
      {"examples/shadowed_mesh", 0x2a6ddb9af0f8cb7aULL},
      {"request/static", 0x59a3800925970d93ULL},
      {"request/dynamic", 0x50c2b5e3277f6051ULL},
      {"request/lifetime", 0x97813c3de2b48c57ULL},
  };
  const auto check = [&](const std::string& label, const std::string& bytes) {
    const auto it = golden.find(label);
    EXPECT_TRUE(it != golden.end() && digest(bytes) == it->second)
        << "{\"" << label << "\", 0x" << std::hex << digest(bytes) << "ULL},";
  };
  for (const std::string& name : scenario_names()) {
    const scenario_file preset{.scenario = get_scenario(name)};
    check(name, to_json(preset));
    EXPECT_TRUE(parse_scenario_json(to_json(preset)) == preset) << name;
  }
  for (const std::string& name : dynamic_scenario_names()) {
    const dynamic_scenario dyn = get_dynamic_scenario(name);
    const scenario_file preset{.scenario = dyn.scenario, .sim = dyn.sim};
    check(name, to_json(preset));
    EXPECT_TRUE(parse_scenario_json(to_json(preset)) == preset) << name;
  }
  for (const char* example :
       {"convergecast_grid", "mobile_churn", "sensor_attrition", "shadowed_mesh"}) {
    const std::string path =
        std::string(CBTC_SOURCE_DIR) + "/examples/scenarios/" + example + ".json";
    check(std::string("examples/") + example, to_json(load_scenario_file(path)));
  }
  wire::batch_request req;
  req.seeds = {3, 100};
  req.blocks = {1, 4};
  req.threads = 2;
  req.scenario = get_scenario("paper_table1");
  check("request/static", wire::encode_batch_request(req));
  req.mode = wire::batch_mode::dynamic_runs;
  req.scenario = get_dynamic_scenario("mobile_churn").scenario;
  req.sim = get_dynamic_scenario("mobile_churn").sim;
  check("request/dynamic", wire::encode_batch_request(req));
  req.mode = wire::batch_mode::lifetime_runs;
  req.scenario = get_scenario("paper_protocol");
  req.lifetime = {.policy = lifetime_policy::energy_balanced, .convergecast = true, .sink = 5};
  check("request/lifetime", wire::encode_batch_request(req));
}

TEST(ApiSerialize, SaveAndLoadFile) {
  const std::string path = "/tmp/cbtc_serialize_test.json";
  const scenario_file original = busy_file();
  save_scenario_file(path, original);
  EXPECT_TRUE(load_scenario_file(path) == original);
  std::remove(path.c_str());
  EXPECT_THROW(load_scenario_file("/nonexistent/dir/x.json"), std::runtime_error);
}

}  // namespace
}  // namespace cbtc::api
