#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cstdint>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "geom/angle.h"
#include "geom/random_points.h"
#include "graph/live_index.h"

#include "radio/channel.h"
#include "radio/power_model.h"
#include "radio/propagation.h"
#include "sim/failure.h"
#include "sim/medium.h"
#include "sim/mobility.h"
#include "sim/simulator.h"

namespace cbtc::sim {
namespace {

// ----------------------------------------------------------- simulator

TEST(Simulator, RunsEventsInTimeOrder) {
  simulator s;
  std::vector<int> order;
  s.schedule_in(3.0, [&] { order.push_back(3); });
  s.schedule_in(1.0, [&] { order.push_back(1); });
  s.schedule_in(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, FifoAtEqualTimes) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, EventsCanScheduleEvents) {
  simulator s;
  int fired = 0;
  s.schedule_in(1.0, [&] {
    ++fired;
    s.schedule_in(1.0, [&] { ++fired; });
  });
  s.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, PastSchedulingClampsToNow) {
  simulator s;
  s.schedule_in(5.0, [&] {
    s.schedule_at(1.0, [] {});  // in the past: runs "now"
  });
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilStopsAndAdvancesClock) {
  simulator s;
  int fired = 0;
  s.schedule_in(1.0, [&] { ++fired; });
  s.schedule_in(10.0, [&] { ++fired; });
  EXPECT_EQ(s.run_until(5.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, MaxEventsCap) {
  simulator s;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] { s.schedule_in(1.0, tick); };
  s.schedule_in(1.0, tick);
  EXPECT_EQ(s.run(100), 100u);
  EXPECT_FALSE(s.idle());
}

// -------------------------------------------------------------- medium

struct test_net {
  simulator sim;
  medium med;
  std::vector<std::vector<std::pair<rx_info, std::string>>> inbox;

  explicit test_net(std::vector<geom::vec2> positions,
                    radio::channel_params ch = {})
      : med(sim, radio::power_model(2.0, 500.0), radio::channel(ch, 1)) {
    inbox.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      med.add_node(positions[i], [this, i](const rx_info& rx, const std::any& payload) {
        inbox[i].push_back({rx, std::any_cast<std::string>(payload)});
      });
    }
  }
};

TEST(Medium, BroadcastReachesOnlyNodesInRange) {
  test_net net({{0, 0}, {100, 0}, {300, 0}});
  net.med.broadcast(0, net.med.power().required_power(150.0), std::string("hi"));
  net.sim.run();
  EXPECT_EQ(net.inbox[1].size(), 1u);
  EXPECT_TRUE(net.inbox[2].empty());
  EXPECT_TRUE(net.inbox[0].empty());  // no self-delivery
  EXPECT_EQ(net.inbox[1][0].second, "hi");
}

TEST(Medium, BroadcastAtExactRangeDelivered) {
  test_net net({{0, 0}, {150, 0}});
  net.med.broadcast(0, net.med.power().required_power(150.0), std::string("edge"));
  net.sim.run();
  EXPECT_EQ(net.inbox[1].size(), 1u);
}

TEST(Medium, RxInfoMetadata) {
  test_net net({{0, 0}, {100, 0}});
  const double p = net.med.power().required_power(200.0);
  net.med.broadcast(0, p, std::string("m"));
  net.sim.run();
  ASSERT_EQ(net.inbox[1].size(), 1u);
  const rx_info& rx = net.inbox[1][0].first;
  EXPECT_EQ(rx.sender, 0u);
  EXPECT_DOUBLE_EQ(rx.tx_power, p);
  // Receiver at (100,0) sees the sender toward bearing pi.
  EXPECT_NEAR(rx.direction, geom::pi, 1e-12);
  // Required-power estimate recovers p(100) = 10000.
  EXPECT_NEAR(net.med.power().estimate_required_power(rx.tx_power, rx.rx_power), 10000.0, 1e-6);
}

TEST(Medium, UnicastOnlyTarget) {
  test_net net({{0, 0}, {100, 0}, {100, 10}});
  net.med.unicast(0, 1, net.med.power().max_power(), std::string("u"));
  net.sim.run();
  EXPECT_EQ(net.inbox[1].size(), 1u);
  EXPECT_TRUE(net.inbox[2].empty());
}

TEST(Medium, UnicastOutOfRangeSilentlyLost) {
  test_net net({{0, 0}, {400, 0}});
  net.med.unicast(0, 1, net.med.power().required_power(100.0), std::string("far"));
  net.sim.run();
  EXPECT_TRUE(net.inbox[1].empty());
}

TEST(Medium, CrashedNodesNeitherSendNorReceive) {
  test_net net({{0, 0}, {100, 0}});
  net.med.crash(1);
  net.med.broadcast(0, net.med.power().max_power(), std::string("a"));
  net.sim.run();
  EXPECT_TRUE(net.inbox[1].empty());

  net.med.crash(0);
  net.med.broadcast(0, net.med.power().max_power(), std::string("b"));
  net.sim.run();
  EXPECT_TRUE(net.inbox[1].empty());

  net.med.restart(0);
  net.med.restart(1);
  net.med.broadcast(0, net.med.power().max_power(), std::string("c"));
  net.sim.run();
  EXPECT_EQ(net.inbox[1].size(), 1u);
}

TEST(Medium, CrashWhileInFlightDropsDelivery) {
  test_net net({{0, 0}, {100, 0}});
  net.med.broadcast(0, net.med.power().max_power(), std::string("x"));
  // Crash the receiver before the (base_delay) delivery fires.
  net.med.crash(1);
  net.sim.run();
  EXPECT_TRUE(net.inbox[1].empty());
}

TEST(Medium, StatsCountTraffic) {
  test_net net({{0, 0}, {100, 0}, {200, 0}});
  net.med.broadcast(0, net.med.power().max_power(), std::string("a"));
  net.med.unicast(1, 2, net.med.power().max_power(), std::string("b"));
  net.sim.run();
  EXPECT_EQ(net.med.stats().broadcasts, 1u);
  EXPECT_EQ(net.med.stats().unicasts, 1u);
  EXPECT_EQ(net.med.stats().deliveries, 3u);  // bcast to 2 + unicast to 1
  EXPECT_GT(net.med.stats().tx_energy, 0.0);
}

TEST(Medium, LossyChannelDrops) {
  test_net net({{0, 0}, {10, 0}}, {.drop_prob = 1.0});
  net.med.broadcast(0, net.med.power().max_power(), std::string("gone"));
  net.sim.run();
  EXPECT_TRUE(net.inbox[1].empty());
  EXPECT_EQ(net.med.stats().drops, 1u);
}

TEST(Medium, DuplicatingChannelDeliversTwice) {
  test_net net({{0, 0}, {10, 0}}, {.dup_prob = 1.0});
  net.med.broadcast(0, net.med.power().max_power(), std::string("twice"));
  net.sim.run();
  EXPECT_EQ(net.inbox[1].size(), 2u);
}

// ------------------------------------- delivery path against an oracle

/// One delivered copy as a receiver saw it.
struct delivered {
  node_id to;
  rx_info info;
  std::uint64_t payload;

  [[nodiscard]] bool operator==(const delivered& o) const {
    // Bitwise on every double: the medium must reproduce the oracle's
    // arithmetic exactly, not approximately.
    return to == o.to && info.sender == o.info.sender && info.tx_power == o.info.tx_power &&
           info.rx_power == o.info.rx_power && info.direction == o.info.direction &&
           info.time == o.info.time && payload == o.payload;
  }
};

/// A payload std::any cannot store inline, so records must carry it.
struct wide_payload {
  std::uint64_t id;
  double pad[3];
};

/// Drives a medium (optionally routed through a live index directory
/// that carries cached gains) through random moves, crashes, restarts,
/// broadcasts and unicasts, and checks every delivered copy against
/// the per-receiver reference arithmetic: link_model::reaches_at, then
/// link_model::rx_power_at and one direction draw per copy, with a
/// twin channel and direction estimator drawing in the same order.
void check_deliveries_against_oracle(const radio::link_model& link, bool directory,
                                     const radio::channel_params& ch, double noise) {
  const std::size_t n = 50;
  const double side = 900.0;
  simulator sim;
  medium med(sim, link, radio::channel(ch, 21), radio::direction_estimator(noise, 22));
  radio::channel twin_channel(ch, 21);
  radio::direction_estimator twin_direction(noise, 22);

  std::vector<delivered> got;
  const std::vector<geom::vec2> start =
      geom::uniform_points(n, geom::bbox::rect(side, side), 5);
  for (node_id u = 0; u < n; ++u) {
    med.add_node(start[u], [&got, u](const rx_info& rx, const std::any& payload) {
      got.push_back({u, rx, std::any_cast<const wide_payload&>(payload).id});
    });
  }
  graph::live_neighbor_index index(start, link);
  if (directory) {
    med.set_move_hook([&](node_id u, const geom::vec2& p) { index.move(u, p); });
    med.set_liveness_hook([&](node_id u, bool up) {
      if (up) {
        index.insert(u, med.position(u));
      } else {
        index.erase(u);
      }
    });
    med.set_broadcast_directory([&index](node_id u) {
      return medium::neighborhood{index.neighbors(u), index.neighbor_gains(u)};
    });
  }

  std::vector<delivered> expected;
  const auto expect_link = [&](node_id from, node_id to, double p, std::uint64_t id) {
    const geom::vec2 a = med.position(from);
    const geom::vec2 b = med.position(to);
    const double d = geom::distance(a, b);
    if (!link.reaches_at(p, d, from, to, a, b)) return;
    const radio::delivery_delays delays = twin_channel.sample_deliveries(d);
    for (const double delay : delays) {
      rx_info info;
      info.sender = from;
      info.tx_power = p;
      info.rx_power = link.rx_power_at(p, d, from, to, a, b);
      info.direction = twin_direction.measure(b, a);
      info.time = sim.now() + delay;
      expected.push_back({to, info, id});
    }
  };

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::uniform_real_distribution<double> share(0.1, 1.0);
  std::uniform_int_distribution<node_id> pick(0, n - 1);
  std::uint64_t next_id = 0;
  std::size_t crashed_in_flight = 0;
  std::size_t copies = 0;
  for (int step = 0; step < 400; ++step) {
    const node_id u = pick(rng);
    switch (rng() % 6) {
      case 0:  // moves, crashed nodes included (they move like the medium's)
        med.set_position(u, {coord(rng), coord(rng)});
        break;
      case 1:
        if (med.is_up(u)) {
          med.crash(u);
        } else {
          med.restart(u);
        }
        break;
      case 2: {  // unicast to a random node
        const node_id v = pick(rng);
        const double p = share(rng) * med.power().max_power();
        const std::uint64_t id = next_id++;
        if (med.is_up(u) && med.is_up(v)) expect_link(u, v, p, id);
        med.unicast(u, v, p, wide_payload{id, {}});
        break;
      }
      default: {
        const double p = share(rng) * med.power().max_power();
        const std::uint64_t id = next_id++;
        if (med.is_up(u)) {
          for (node_id v = 0; v < n; ++v) {
            if (v != u && med.is_up(v)) expect_link(u, v, p, id);
          }
        }
        med.broadcast(u, p, wide_payload{id, {}});
        if (!expected.empty() && rng() % 4 == 0) {
          // Crash one receiver while its copies are still in flight.
          const node_id victim = expected[rng() % expected.size()].to;
          med.crash(victim);
          crashed_in_flight += static_cast<std::size_t>(std::erase_if(
              expected, [victim](const delivered& e) { return e.to == victim; }));
        }
      }
    }
    sim.run();
    // The scheduler's canonical order: time, then receiver, then copy.
    std::stable_sort(expected.begin(), expected.end(), [](const delivered& a, const delivered& b) {
      return std::tie(a.info.time, a.to) < std::tie(b.info.time, b.to);
    });
    ASSERT_EQ(got, expected) << "step " << step;
    copies += got.size();
    got.clear();
    expected.clear();
  }
  EXPECT_GT(next_id, 200u);
  EXPECT_GT(copies, 400u);
  EXPECT_GT(crashed_in_flight, 0u);
}

radio::propagation_model test_shadowing() {
  return radio::propagation_model::lognormal_shadowing(4.0, 8.0, 13);
}

radio::propagation_model test_obstacles() {
  return radio::propagation_model::obstacle_field({
      {.box = {{150.0, 150.0}, {450.0, 400.0}}, .loss_db = 9.0},
      {.box = {{500.0, 450.0}, {800.0, 750.0}}, .loss_db = 6.0},
  });
}

void check_every_model(bool directory) {
  const radio::power_model pm(2.0, 400.0);
  const radio::channel_params twice{.dup_prob = 1.0, .jitter_max = 0.005};
  const radio::channel_params lossy{.drop_prob = 0.3, .dup_prob = 0.5, .delay_per_unit = 1e-4,
                                    .jitter_max = 0.02};
  for (const radio::channel_params& ch : {twice, lossy}) {
    SCOPED_TRACE(ch.drop_prob > 0.0 ? "lossy channel" : "duplicating channel");
    check_deliveries_against_oracle(radio::link_model(pm), directory, ch, 0.0);
    check_deliveries_against_oracle(radio::link_model(pm, test_shadowing()), directory, ch, 0.1);
    check_deliveries_against_oracle(radio::link_model(pm, test_obstacles()), directory, ch, 0.1);
  }
}

TEST(Medium, DeliveriesMatchReferenceArithmeticFullScan) { check_every_model(false); }

TEST(Medium, DeliveriesMatchReferenceArithmeticThroughIndexDirectory) {
  check_every_model(true);
}

// ------------------------------------------------------------ mobility

TEST(RandomWaypoint, KeepsNodesInRegionAndMovesThem) {
  simulator sim;
  medium med(sim, radio::power_model(2.0, 100.0));
  const geom::bbox region = geom::bbox::rect(200.0, 200.0);
  med.add_node({100.0, 100.0}, {});
  med.add_node({50.0, 50.0}, {});
  const geom::vec2 start0 = med.position(0);

  random_waypoint rw(med, {.region = region, .min_speed = 5.0, .max_speed = 10.0}, 42);
  rw.start(0.5, 50.0);
  sim.run();

  EXPECT_TRUE(region.contains(med.position(0)));
  EXPECT_TRUE(region.contains(med.position(1)));
  EXPECT_GT(geom::distance(start0, med.position(0)), 0.0);
}

TEST(BouncingMobility, ReflectsAtWalls) {
  simulator sim;
  medium med(sim, radio::power_model(2.0, 100.0));
  const geom::bbox region = geom::bbox::rect(100.0, 100.0);
  med.add_node({95.0, 50.0}, {});
  bouncing_mobility bm(med, region, {{10.0, 0.0}});
  bm.start(1.0, 10.0);
  sim.run();
  // Node hit the right wall and bounced back inside.
  EXPECT_TRUE(region.contains(med.position(0)));
  EXPECT_LT(med.position(0).x, 100.0);
}

// ------------------------------------------------------------- failure

TEST(FailureInjector, CrashAndRestartAtTimes) {
  simulator sim;
  medium med(sim, radio::power_model(2.0, 100.0));
  med.add_node({0, 0}, {});
  failure_injector inj(med);
  inj.crash_at(0, 5.0);
  inj.restart_at(0, 10.0);

  sim.run_until(6.0);
  EXPECT_FALSE(med.is_up(0));
  sim.run_until(11.0);
  EXPECT_TRUE(med.is_up(0));
}

TEST(FailureInjector, RandomCrashesDistinctVictims) {
  simulator sim;
  medium med(sim, radio::power_model(2.0, 100.0));
  for (int i = 0; i < 20; ++i) med.add_node({double(i), 0.0}, {});
  failure_injector inj(med, 7);
  const auto victims = inj.random_crashes(5, 0.0, 1.0);
  EXPECT_EQ(victims.size(), 5u);
  std::set<node_id> unique(victims.begin(), victims.end());
  EXPECT_EQ(unique.size(), 5u);
  sim.run();
  for (node_id v : victims) EXPECT_FALSE(med.is_up(v));
}

}  // namespace
}  // namespace cbtc::sim
