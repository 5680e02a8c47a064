// The partitioned dynamic engine's determinism contract: a dynamic
// run's report is bitwise-identical at every region count and every
// thread count — the single-queue canonical-tie simulator is the
// reference oracle, and regions {4, 16} x threads {1, 4} must
// reproduce it field for field, under uniform and lognormal-shadowed
// propagation, with boundary crossings (waypoint mobility across the
// region grid) and mid-run crashes/restarts in flight. Plus direct
// unit coverage of the conservative synchronizer itself: lookahead
// safety (no event created inside a phase below now + lookahead),
// parallel-phase telemetry, migration counting, and the per-region
// churn counters on the live index.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "api/api.h"
#include "geom/vec2.h"
#include "graph/live_index.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace cbtc {
namespace {

using namespace cbtc::api;

/// Busy little field: waypoint mobility drags nodes across the region
/// grid while crashes and an explicit crash/restart pair flip liveness
/// mid-run.
scenario_spec partition_scenario() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 28, .region_side = 1000.0};
  spec.base_seed = 77;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;
  return spec;
}

sim_spec partition_sim() {
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
  return dyn;
}

TEST(SimPartition, ReportBitwiseIdenticalAcrossRegionAndThreadCounts) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  const engine eng;

  for (const bool shadowed : {false, true}) {
    spec.radio.propagation =
        shadowed ? propagation_spec{.kind = radio::propagation_kind::lognormal_shadowing,
                                    .sigma_db = 3.0,
                                    .clamp_db = 6.0}
                 : propagation_spec{};

    // regions = 1 forces the single-queue reference engine.
    spec.cbtc.intra_threads = 1;
    dyn.partition.regions = 1;
    const dynamic_report reference = eng.run_dynamic(spec, dyn, 5);

    for (const std::uint32_t regions : {4u, 16u}) {
      for (const unsigned threads : {1u, 4u}) {
        spec.cbtc.intra_threads = threads;
        dyn.partition.regions = regions;
        const dynamic_report partitioned = eng.run_dynamic(spec, dyn, 5);
        SCOPED_TRACE(::testing::Message() << "shadowed=" << shadowed << " regions=" << regions
                                          << " threads=" << threads);
        EXPECT_TRUE(reference == partitioned);
      }
    }
  }
}

/// Every registered dynamic preset must reproduce its serial report
/// bitwise when forced onto the partitioned engine (the presets cover
/// crash-recovery, attrition, shadowing, and obstacle fields; the
/// draw-free gate may route some to the reference path — identity must
/// hold either way).
TEST(SimPartition, EveryDynamicPresetBitwiseIdenticalPartitioned) {
  const engine eng;
  for (const std::string& name : dynamic_scenario_names()) {
    dynamic_scenario preset = get_dynamic_scenario(name);
    preset.scenario.cbtc.intra_threads = 1;
    preset.sim.partition.regions = 1;
    const dynamic_report serial = eng.run_dynamic(preset.scenario, preset.sim, 0);
    preset.scenario.cbtc.intra_threads = 4;
    preset.sim.partition.regions = 16;
    const dynamic_report partitioned = eng.run_dynamic(preset.scenario, preset.sim, 0);
    SCOPED_TRACE(::testing::Message() << "preset " << name);
    EXPECT_TRUE(serial == partitioned);
  }
}

/// Auto mode (regions = 0) below the node threshold must run the
/// serial reference — same report as an explicit regions = 1 run.
TEST(SimPartition, AutoModeBelowThresholdMatchesSerialReference) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  const engine eng;

  dyn.partition.regions = 1;
  const dynamic_report serial = eng.run_dynamic(spec, dyn, 9);
  dyn.partition.regions = 0;  // auto; 28 nodes < min_nodes => serial
  const dynamic_report automatic = eng.run_dynamic(spec, dyn, 9);
  EXPECT_TRUE(serial == automatic);
}

/// Direct conservative-sync coverage: handlers fan across regions on a
/// real pool, self-schedule same-instant retries, and send deliveries
/// exactly one lookahead ahead. No event may be created inside a phase
/// below now + lookahead (violations == 0), and the phase/lane
/// telemetry must add up.
TEST(SimPartition, LookaheadSafetyAndPhaseTelemetry) {
  constexpr double delta = 0.01;
  constexpr std::uint32_t kRegions = 4;
  constexpr std::size_t kNodes = 8;  // two per region
  util::thread_pool pool(4);
  sim::partitioned_simulator psim(
      kNodes, {.regions = kRegions, .lookahead = delta, .pool = &pool, .serial_batch_limit = 0});
  for (graph::node_id u = 0; u < kNodes; ++u) {
    psim.set_region(u, static_cast<std::uint32_t>(u % kRegions));
  }
  EXPECT_EQ(psim.stats().migrations, 6u);  // every u with u % 4 != 0 left region 0

  std::vector<std::uint64_t> fired(kNodes, 0);
  std::vector<std::uint64_t> tx_seq(kNodes, 0);
  std::atomic<std::uint64_t> retries{0};  // bumped from several lanes at once

  // Every node ping-pongs a delivery to the node two regions over,
  // re-arming itself for a bounded number of rounds; the first firing
  // also self-schedules a same-instant retry (the stagger pattern).
  std::function<void(graph::node_id, std::size_t)> arm = [&](graph::node_id self,
                                                             std::size_t rounds) {
    psim.schedule_node(psim.now() + delta, self, [&, self, rounds] {
      ++fired[self];
      if (fired[self] == 1) {
        psim.schedule_node(psim.now(), self, [&] { ++retries; });
      }
      const auto peer = static_cast<graph::node_id>((self + 2) % kNodes);
      psim.schedule_delivery(psim.now() + delta, peer, self, tx_seq[self]++, 0,
                             [&, peer] { ++fired[peer]; });
      if (rounds > 1) arm(self, rounds - 1);
    });
  };
  for (graph::node_id u = 0; u < kNodes; ++u) arm(u, 20);
  psim.run_until(1.0);

  const sim::partition_stats& st = psim.stats();
  EXPECT_EQ(st.violations, 0u);
  EXPECT_GT(st.parallel_events, 0u);
  EXPECT_GT(st.parallel_phases, 0u);
  EXPECT_GT(st.instants, 0u);
  EXPECT_TRUE(psim.idle());
  std::uint64_t lane_total = 0;
  for (const std::uint64_t n : psim.region_events()) lane_total += n;
  EXPECT_EQ(lane_total, st.parallel_events);
  EXPECT_EQ(psim.events_processed(), st.parallel_events + st.serial_events);
  for (graph::node_id u = 0; u < kNodes; ++u) {
    EXPECT_EQ(fired[u], 40u) << "node " << u;  // 20 timer firings + 20 deliveries
  }
  EXPECT_EQ(retries.load(), kNodes);
}

/// The serial simulator orders same-time events by their typed keys
/// (class, then owner), independent of insertion order.
TEST(SimPartition, SerialSimulatorCanonicalTies) {
  std::vector<int> order;
  sim::simulator s;
  s.schedule_delivery(1.0, /*to=*/5, /*from=*/0, 0, 0, [&] { order.push_back(2); });
  s.schedule_node(1.0, /*owner=*/9, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // class 0 < class 1 < class 2
}

/// Per-region churn telemetry on the live index: every move / erase /
/// insert of a live node is charged to its current region.
TEST(SimPartition, LiveIndexRegionChurnCounters) {
  const std::vector<geom::vec2> positions = {{0, 0}, {10, 0}, {500, 500}, {510, 500}};
  graph::live_neighbor_index index(positions, 50.0);
  index.set_region_map({0, 0, 1, 1}, 2);

  index.move(0, {1, 0});
  index.move(2, {501, 500});
  index.move(2, {502, 500});
  index.erase(3);
  index.move(3, {511, 500});  // down: not charged
  index.insert(3, {511, 500});

  ASSERT_EQ(index.region_churn().size(), 2u);
  EXPECT_EQ(index.region_churn()[0], 1u);
  EXPECT_EQ(index.region_churn()[1], 4u);

  index.set_node_region(0, 1);  // migrated: next churn lands in region 1
  index.move(0, {2, 0});
  EXPECT_EQ(index.region_churn()[0], 1u);
  EXPECT_EQ(index.region_churn()[1], 5u);
}

}  // namespace
}  // namespace cbtc
