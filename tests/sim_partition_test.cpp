// The event engine's determinism contract: a dynamic run's report is
// bitwise-identical at every region count and every thread count —
// the one-region engine is the reference oracle, and regions {4, 16}
// x threads {1, 4} must reproduce it field for field, under uniform
// and lognormal-shadowed propagation, with boundary crossings
// (waypoint mobility across the region grid) and mid-run
// crashes/restarts in flight. Plus direct unit coverage of the
// conservative synchronizer itself: lookahead safety (no event created
// inside a phase below now + lookahead), parallel-phase telemetry,
// migration counting, the rejection of node ids at or above the node
// count, and the per-region churn counters on the live index; and of
// the one-region engine's key order at zero lookahead.
//
// No assertion here depends on how threads are scheduled: lane
// telemetry is a function of the event structure and the pool's
// configured width (not the machine's core count), per-node counters
// are touched only from their owner's lane, and cross-lane counters
// are atomics whose totals do not depend on interleaving. Timing
// decides only how often the recycle test hits its race window, which
// TSan then checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <any>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.h"
#include "geom/vec2.h"
#include "graph/live_index.h"
#include "sim/medium.h"
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

    // regions = 1 forces the one-region engine.
    spec.cbtc.intra_threads = 1;
    dyn.partition.regions = 1;
    const dynamic_report reference = eng.run_dynamic(spec, dyn, 5);

    // The largest request is clamped to a g x g grid with g <=
    // floor(sqrt(28)) = 5, so no lane is allocated per requested region.
    for (const std::uint32_t regions : {4u, 16u, 4294967295u}) {
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

/// Every registered dynamic preset must reproduce its one-region report
/// bitwise when forced onto 16 regions (the presets cover
/// crash-recovery, attrition, shadowing, and obstacle fields; the
/// draw-free gate may keep some at one region — identity must hold
/// either way).
TEST(SimPartition, EveryDynamicPresetBitwiseIdenticalPartitioned) {
  const engine eng;
  for (const std::string& name : dynamic_scenario_names()) {
    dynamic_scenario preset = get_dynamic_scenario(name);
    preset.scenario.cbtc.intra_threads = 1;
    preset.sim.partition.regions = 1;
    const dynamic_report one_region = eng.run_dynamic(preset.scenario, preset.sim, 0);
    preset.scenario.cbtc.intra_threads = 4;
    preset.sim.partition.regions = 16;
    const dynamic_report partitioned = eng.run_dynamic(preset.scenario, preset.sim, 0);
    SCOPED_TRACE(::testing::Message() << "preset " << name);
    EXPECT_TRUE(one_region == partitioned);
  }
}

/// Auto mode (regions = 0) below the node threshold must run the
/// one-region engine — same report as an explicit regions = 1 run.
TEST(SimPartition, AutoModeBelowThresholdMatchesSerialReference) {
  scenario_spec spec = partition_scenario();
  sim_spec dyn = partition_sim();
  const engine eng;

  dyn.partition.regions = 1;
  const dynamic_report one_region = eng.run_dynamic(spec, dyn, 9);
  dyn.partition.regions = 0;  // auto; 28 nodes < min_nodes => one region
  const dynamic_report automatic = eng.run_dynamic(spec, dyn, 9);
  EXPECT_TRUE(one_region == automatic);
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
  sim::simulator psim(
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

/// The medium's transmission records on four lanes. A
/// sender in region 0 unicasts to one receiver in each other region at
/// every lookahead step, after six busy timers of its own lane, so its
/// previous records are usually delivered on other threads before it
/// opens the next ones: it recycles a record at the instant its copy
/// was read elsewhere. Every copy must carry its own transmission's
/// payload, and under TSan the reuse must be ordered after the read
/// (a record released before its handler ran is reported as a race).
TEST(SimPartition, TransmissionRecordsRecycleWhilePeerLanesDeliver) {
  constexpr double delta = 0.01;
  constexpr graph::node_id kSender = 6;  // after the busy ids 0..5 in its lane
  constexpr std::size_t kNodes = 10;     // receivers 7, 8, 9 in regions 1, 2, 3
  util::thread_pool pool(4);
  sim::simulator psim(
      kNodes, {.regions = 4, .lookahead = delta, .pool = &pool, .serial_batch_limit = 0});
  sim::medium medium(psim, radio::power_model(2.0, 100.0));  // base delay == delta

  struct tag {
    graph::node_id sender;
    std::uint64_t seq;
    double check[2];  // too wide for std::any's inline buffer
  };
  std::atomic<std::uint64_t> received{0};
  std::atomic<std::uint64_t> mismatched{0};
  for (graph::node_id u = 0; u < kNodes; ++u) {
    medium.add_node({10.0 * u, 0.0}, [&](const sim::rx_info& rx, const std::any& payload) {
      const tag& t = std::any_cast<const tag&>(payload);
      if (t.sender != rx.sender || t.check[0] != static_cast<double>(t.seq) ||
          t.check[1] != rx.tx_power) {
        ++mismatched;
      }
      ++received;
    });
    psim.set_region(u, u <= kSender ? 0U : u - kSender);
  }

  constexpr std::uint64_t kSteps = 60;
  std::uint64_t seq = 0;
  std::function<void()> send = [&] {
    for (graph::node_id to = kSender + 1; to < kNodes; ++to) {
      const double power = 1000.0 + static_cast<double>(seq % 7);
      medium.unicast(kSender, to, power, tag{kSender, seq, {static_cast<double>(seq), power}});
      ++seq;
    }
    if (seq < 3 * kSteps) medium.schedule_self(kSender, delta, send);
  };
  std::vector<double> spin(kSender, 0.0);
  std::function<void(graph::node_id, std::uint64_t)> busy = [&](graph::node_id u,
                                                                std::uint64_t left) {
    for (int i = 0; i < 20000; ++i) spin[u] += std::sqrt(static_cast<double>(i + u));
    if (left > 1) medium.schedule_self(u, delta, [&busy, u, left] { busy(u, left - 1); });
  };
  psim.schedule_node(delta, kSender, send);
  for (graph::node_id u = 0; u < kSender; ++u) {
    psim.schedule_node(delta, u, [&busy, u] { busy(u, kSteps); });
  }
  psim.run_until(2.0);

  EXPECT_EQ(mismatched.load(), 0u);
  EXPECT_EQ(received.load(), 3 * kSteps);
  EXPECT_GT(psim.stats().parallel_phases, kSteps / 2);
  EXPECT_EQ(psim.stats().violations, 0u);
}

/// The one-region engine orders same-time events by their typed keys
/// (class, then owner), independent of insertion order.
TEST(SimPartition, OneRegionEngineCanonicalTies) {
  std::vector<int> order;
  sim::simulator s;
  s.schedule_delivery(1.0, /*to=*/5, /*from=*/0, 0, 0, [&] { order.push_back(2); });
  s.schedule_node(1.0, /*owner=*/9, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(0); });
  s.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // class 0 < class 1 < class 2
}

/// With zero lookahead, a one-region handler may schedule deliveries
/// at its own instant. They run within that instant in key order
/// (receiver, sender, transmission, copy), after a same-instant timer,
/// whatever order they were scheduled in; the instant hook runs once,
/// after all of them.
TEST(SimPartition, OneRegionZeroLookaheadRunsSameInstantDeliveriesInKeyOrder) {
  sim::simulator s(4, {.regions = 1, .lookahead = 0.0});
  std::vector<std::string> order;
  std::vector<std::size_t> hook_runs;
  s.set_instant_hook([&] { hook_runs.push_back(order.size()); });
  const auto deliver = [&](graph::node_id to, graph::node_id from, std::uint64_t seq,
                           std::uint32_t copy) {
    s.schedule_delivery(s.now(), to, from, seq, copy, [&order, to, from, seq, copy] {
      order.push_back(std::to_string(to) + "<" + std::to_string(from) + "#" +
                      std::to_string(seq) + "." + std::to_string(copy));
    });
  };
  s.schedule_node(1.0, 0, [&] {
    order.push_back("timer 0");
    s.request_instant_hook();
    deliver(3, 0, 7, 1);
    deliver(2, 1, 0, 0);
    deliver(3, 0, 7, 0);
    deliver(2, 0, 5, 0);
    s.schedule_node(s.now(), 1, [&] { order.push_back("timer 1"); });
  });
  EXPECT_EQ(s.run_until(1.0), 6u);
  EXPECT_EQ(order, (std::vector<std::string>{"timer 0", "timer 1", "2<0#5.0", "2<1#0.0",
                                             "3<0#7.0", "3<0#7.1"}));
  EXPECT_EQ(hook_runs, (std::vector<std::size_t>{6}));
  EXPECT_DOUBLE_EQ(s.now(), 1.0);
  EXPECT_TRUE(s.idle());
  EXPECT_FALSE(sim::simulator::in_event_phase());
}

/// With two or more regions a node id indexes the region map, so the
/// schedule paths and set_region reject ids at or above the node count
/// (and set_region a region at or above the region count), from serial
/// contexts and from inside a lane. One region keeps accepting any
/// owner, growing its timer counters on demand.
TEST(SimPartition, OutOfRangeNodeIdsThrowWithTwoOrMoreRegions) {
  sim::simulator psim(4, {.regions = 4, .lookahead = 0.01});
  EXPECT_THROW(psim.schedule_node(0.5, 40000, [] {}), std::out_of_range);
  EXPECT_THROW(psim.schedule_delivery(0.5, 40000, 0, 0, 0, [] {}), std::out_of_range);
  EXPECT_THROW(psim.set_region(40000, 1), std::out_of_range);
  EXPECT_THROW(psim.set_region(1, 4), std::out_of_range);
  EXPECT_TRUE(psim.idle());
  EXPECT_EQ(psim.stats().migrations, 0u);

  int ran = 0;
  psim.schedule_node(0.5, 3, [&] { ++ran; });
  EXPECT_EQ(psim.run(), 1u);
  EXPECT_EQ(ran, 1);

  sim::simulator one;
  one.schedule_node(0.5, 40000, [&] { ++ran; });
  EXPECT_EQ(one.run(), 1u);
  EXPECT_EQ(ran, 2);

  psim.schedule_node(1.0, 2, [&] {
    psim.schedule_delivery(psim.now() + 0.01, 40000, 2, 0, 0, [] {});
  });
  EXPECT_THROW(psim.run(), std::out_of_range);
  EXPECT_FALSE(sim::simulator::in_event_phase());
}

/// Per-region churn telemetry on the live index: every move / erase /
/// insert of a live node is charged to its current region.
TEST(SimPartition, LiveIndexRegionChurnCounters) {
  const std::vector<geom::vec2> positions = {{0, 0}, {10, 0}, {500, 500}, {510, 500}};
  graph::live_neighbor_index index(positions, radio::power_model(2.0, 50.0));
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
