// The convergecast data plane and the lifetime-policy layer.
//
// Conservation: every generated packet is accounted for exactly once
// (delivered + dropped + lost in flight + still queued). Determinism:
// a traffic-enabled dynamic run's report — traffic counters included —
// is bitwise identical across region counts and thread counts, with
// the one-region engine as the reference oracle.
// Policies: energy-balanced routing delays the first battery death
// relative to plain CBTC routing under the same convergecast workload.
// Plus invariants of the structured (seed-free) deployment generators
// and JSON round-trips of the new traffic / lifetime / deployment
// schema.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.h"
#include "api/serialize.h"
#include "geom/bbox.h"
#include "geom/structured_points.h"
#include "geom/vec2.h"

namespace cbtc {
namespace {

using namespace cbtc::api;

/// The partition-test field plus a convergecast stream: waypoint
/// mobility drags relays around while crashes (including an explicit
/// crash/restart pair) flip liveness mid-stream.
scenario_spec traffic_scenario() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 28, .region_side = 1000.0};
  spec.base_seed = 77;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;
  return spec;
}

sim_spec traffic_sim() {
  sim_spec dyn;
  dyn.horizon = 30.0;
  dyn.settle = 8.0;
  dyn.sample_every = 2.0;
  dyn.beacons = {.interval = 1.0, .miss_limit = 3};
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 9.0};
  dyn.failures = {.random_crashes = 2, .window_begin = 10.0, .window_end = 16.0};
  dyn.failures.events.push_back({.node = 3, .time = 12.0, .restart = false});
  dyn.failures.events.push_back({.node = 3, .time = 20.0, .restart = true});
  dyn.traffic = {.period = 0.5, .sink = 0, .start = 9.0};
  return dyn;
}

/// Every packet the sources generate must be accounted for exactly
/// once: delivered, dropped (full queue / no route / dead node), lost
/// in the air (down or out-of-range receiver, or still in flight at
/// the horizon), or sitting in a queue when the run ends.
TEST(SimTraffic, PacketConservation) {
  const engine eng;
  const scenario_spec spec = traffic_scenario();
  const sim_spec dyn = traffic_sim();
  for (const std::uint64_t seed : {0u, 3u, 11u}) {
    const dynamic_report r = eng.run_dynamic(spec, dyn, seed);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ASSERT_TRUE(r.traffic.enabled);
    EXPECT_GT(r.traffic.generated, 0u);
    EXPECT_GT(r.traffic.delivered, 0u);
    EXPECT_EQ(r.traffic.generated,
              r.traffic.delivered + r.traffic.queue_drops + r.traffic.no_route_drops +
                  r.traffic.dead_drops + r.traffic.lost_in_air + r.traffic.queued_at_end);
    // Derived metrics stay consistent with the raw counters.
    EXPECT_DOUBLE_EQ(r.traffic.delivery_ratio,
                     static_cast<double>(r.traffic.delivered) /
                         static_cast<double>(r.traffic.generated));
    EXPECT_GT(r.traffic.throughput, 0.0);
    EXPECT_GT(r.traffic.avg_delay, 0.0);
    EXPECT_GT(r.traffic.forwarding_energy, 0.0);
    EXPECT_GE(r.traffic.energy_max, r.traffic.energy_mean);
    EXPECT_GE(r.traffic.energy_stddev, 0.0);
    EXPECT_GE(r.traffic.forwards, r.traffic.delivered);
  }
}

/// A convergecast run's report — traffic counters included — must be
/// bitwise identical at every region x thread combination.
TEST(SimTraffic, ConvergecastBitwiseIdenticalAcrossRegionAndThreadCounts) {
  scenario_spec spec = traffic_scenario();
  sim_spec dyn = traffic_sim();
  const engine eng;

  spec.cbtc.intra_threads = 1;
  dyn.partition.regions = 1;  // the one-region engine
  const dynamic_report reference = eng.run_dynamic(spec, dyn, 5);
  ASSERT_TRUE(reference.traffic.enabled);
  ASSERT_GT(reference.traffic.delivered, 0u);

  for (const std::uint32_t regions : {4u, 16u}) {
    for (const unsigned threads : {1u, 4u}) {
      spec.cbtc.intra_threads = threads;
      dyn.partition.regions = regions;
      const dynamic_report partitioned = eng.run_dynamic(spec, dyn, 5);
      SCOPED_TRACE(::testing::Message() << "regions=" << regions << " threads=" << threads);
      EXPECT_TRUE(reference == partitioned);
    }
  }
}

/// The registered convergecast preset produces a healthy stream: most
/// packets reach the sink and the forwarding load is visibly unequal
/// (relays near the sink carry more — the imbalance the lifetime
/// policies exist to correct).
TEST(SimTraffic, ConvergecastGridPresetDelivers) {
  const dynamic_scenario preset = get_dynamic_scenario("convergecast_grid");
  const engine eng;
  const dynamic_report r = eng.run_dynamic(preset.scenario, preset.sim, 0);
  ASSERT_TRUE(r.traffic.enabled);
  EXPECT_GT(r.traffic.delivery_ratio, 0.5);
  EXPECT_GT(r.traffic.throughput, 0.0);
  EXPECT_GT(r.traffic.energy_stddev, 0.0);
  EXPECT_GT(r.traffic.route_refreshes, 0u);
}

/// Energy-balanced routing must not die earlier than plain CBTC
/// routing under the identical convergecast workload: spreading the
/// relay load delays the first battery death.
TEST(SimTraffic, EnergyBalancedDelaysFirstDeath) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 100, .region_side = 1500.0};
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.opts = algo::optimization_set::all();

  lifetime_spec life;
  life.convergecast = true;
  life.sink = 0;

  const engine eng;
  for (const std::uint64_t seed : {0u, 1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    life.policy = lifetime_policy::plain_cbtc;
    const lifetime_report plain = eng.run_lifetime(spec, life, seed);
    life.policy = lifetime_policy::energy_balanced;
    const lifetime_report balanced = eng.run_lifetime(spec, life, seed);
    EXPECT_GT(plain.first_death, 0.0);
    EXPECT_GE(balanced.first_death, plain.first_death);
  }
}

/// All three policies run to completion and report ordered milestones
/// (first death <= 25% dead <= partition, partition capped at
/// max_rounds).
TEST(SimTraffic, AllPoliciesProduceOrderedMilestones) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 60, .region_side = 1200.0};
  spec.cbtc.mode = algo::growth_mode::continuous;

  const engine eng;
  for (const lifetime_policy policy :
       {lifetime_policy::plain_cbtc, lifetime_policy::energy_balanced,
        lifetime_policy::cooperative_adaptation}) {
    SCOPED_TRACE(schema::name_of(schema::lifetime_policy_names, policy));
    lifetime_spec life;
    life.policy = policy;
    life.convergecast = true;
    life.sink = 2;
    const lifetime_report r = eng.run_lifetime(spec, life, 0);
    EXPECT_GT(r.first_death, 0.0);
    EXPECT_LE(r.first_death, r.quarter_dead);
    EXPECT_LE(r.first_death, r.field_partition);
    EXPECT_LE(r.field_partition, static_cast<double>(life.max_rounds));
  }
}

/// The historical random-flows experiment (plain policy, no
/// convergecast) still runs and the batch aggregates still merge.
TEST(SimTraffic, LegacyLifetimeBatchStillRuns) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 40, .region_side = 1000.0};
  spec.cbtc.mode = algo::growth_mode::continuous;
  const engine eng;
  const lifetime_batch_report b = eng.run_batch(spec, lifetime_spec{}, {0, 4}, 2);
  EXPECT_EQ(b.runs, 4u);
  EXPECT_GT(b.first_death.mean(), 0.0);
  EXPECT_GE(b.field_partition.max(), b.first_death.min());
}

// ---- structured deployment generators ------------------------------

bool inside(const geom::vec2& p, const geom::bbox& box) {
  return p.x >= box.min.x && p.x <= box.max.x && p.y >= box.min.y && p.y <= box.max.y;
}

TEST(StructuredPoints, ExactCountInsideRegion) {
  const geom::bbox box = geom::bbox::rect(1000.0, 600.0);
  for (const std::size_t n : {1u, 2u, 7u, 16u, 61u}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    for (const auto& pts :
         {geom::grid_points(n, box), geom::ring_points(n, box), geom::tree_points(n, 3, box),
          geom::star_points(n, 5, box)}) {
      EXPECT_EQ(pts.size(), n);
      for (const geom::vec2& p : pts) EXPECT_TRUE(inside(p, box));
    }
  }
}

TEST(StructuredPoints, RingIsEquidistantFromCenter) {
  const geom::bbox box = geom::bbox::rect(800.0, 800.0);
  const geom::vec2 center{400.0, 400.0};
  const std::vector<geom::vec2> pts = geom::ring_points(24, box);
  const double expected = 0.42 * 800.0;
  for (const geom::vec2& p : pts) {
    const double r = std::hypot(p.x - center.x, p.y - center.y);
    EXPECT_NEAR(r, expected, 1e-9);
  }
}

TEST(StructuredPoints, StarHubSitsAtCenterWithCollinearArms) {
  const geom::bbox box = geom::bbox::rect(1000.0, 1000.0);
  const std::size_t arms = 4;
  const std::vector<geom::vec2> pts = geom::star_points(13, arms, box);
  EXPECT_NEAR(pts[0].x, 500.0, 1e-9);
  EXPECT_NEAR(pts[0].y, 500.0, 1e-9);
  // Spokes i and i + arms lie on the same ray: cross product vanishes.
  for (std::size_t i = 1; i + arms < pts.size(); ++i) {
    const geom::vec2 a{pts[i].x - pts[0].x, pts[i].y - pts[0].y};
    const geom::vec2 b{pts[i + arms].x - pts[0].x, pts[i + arms].y - pts[0].y};
    EXPECT_NEAR(a.x * b.y - a.y * b.x, 0.0, 1e-6) << "spoke " << i;
  }
}

TEST(StructuredPoints, StructuredDeploymentsIgnoreTheSeed) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::ring, .nodes = 20, .region_side = 900.0};
  const std::vector<geom::vec2> a = spec.make_positions(0);
  const std::vector<geom::vec2> b = spec.make_positions(12345);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_EQ(a[i].y, b[i].y);
  }
}

// ---- JSON schema ----------------------------------------------------

TEST(SimTraffic, ScenarioFileRoundTripsTrafficAndLifetime) {
  scenario_file file;
  file.scenario.name = "rt";
  file.scenario.deploy = {.kind = deployment_kind::tree, .nodes = 31, .region_side = 1200.0};
  file.scenario.deploy.tree_branching = 3;
  sim_spec dyn;
  dyn.horizon = 40.0;
  dyn.traffic = {.period = 1.5, .sink = 4, .start = 10.0, .queue_capacity = 12};
  file.sim = dyn;
  lifetime_spec life;
  life.policy = lifetime_policy::cooperative_adaptation;
  life.convergecast = true;
  life.sink = 4;
  file.lifetime = life;

  const std::string text = to_json(file);
  const scenario_file parsed = parse_scenario_json(text);
  EXPECT_EQ(parsed.scenario.deploy.kind, deployment_kind::tree);
  EXPECT_EQ(parsed.scenario.deploy.tree_branching, 3u);
  ASSERT_TRUE(parsed.sim.has_value());
  EXPECT_EQ(parsed.sim->traffic.period, 1.5);
  EXPECT_EQ(parsed.sim->traffic.sink, 4u);
  EXPECT_EQ(parsed.sim->traffic.queue_capacity, 12u);
  ASSERT_TRUE(parsed.lifetime.has_value());
  EXPECT_EQ(parsed.lifetime->policy, lifetime_policy::cooperative_adaptation);
  EXPECT_TRUE(parsed.lifetime->convergecast);
  EXPECT_EQ(parsed.lifetime->sink, 4u);
  EXPECT_EQ(to_json(parsed), text);  // fixed point
}

TEST(SimTraffic, PolicyNamesParseWithAliases) {
  const auto parse = [](std::string_view name) {
    return schema::parse_name(schema::lifetime_policy_names, name);
  };
  EXPECT_EQ(parse("plain"), lifetime_policy::plain_cbtc);
  EXPECT_EQ(parse("balanced"), lifetime_policy::energy_balanced);
  EXPECT_EQ(parse("cooperative"), lifetime_policy::cooperative_adaptation);
  for (const lifetime_policy p :
       {lifetime_policy::plain_cbtc, lifetime_policy::energy_balanced,
        lifetime_policy::cooperative_adaptation}) {
    EXPECT_EQ(parse(schema::name_of(schema::lifetime_policy_names, p)), p);
  }
  EXPECT_THROW((void)parse("greedy"), std::invalid_argument);
}

TEST(SimTraffic, UnknownTrafficKeysAreRejected) {
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"name": "x"},
                              "sim": {"traffic": {"period": 1.0, "snik": 3}}})"),
      std::invalid_argument);
  EXPECT_THROW(
      parse_scenario_json(R"({"scenario": {"name": "x"},
                              "lifetime": {"policy": "warp_drive"}})"),
      std::invalid_argument);
}

}  // namespace
}  // namespace cbtc
