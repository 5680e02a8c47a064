// NDP + reconfiguration (Section 4): joins, leaves, aChange, crash
// recovery, and mobility, all on the event-driven simulator.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph/traversal.h"
#include "proto/reconfig.h"
#include "radio/power_model.h"
#include "radio/propagation.h"
#include "sim/failure.h"
#include "sim/mobility.h"

namespace cbtc::proto {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

struct reconfig_net {
  sim::simulator simulator;
  sim::medium medium;
  std::vector<std::unique_ptr<reconfig_agent>> agents;

  explicit reconfig_net(const std::vector<vec2>& positions, reconfig_config cfg = default_config(),
                        radio::link_model link = pm)
      : medium(simulator, std::move(link)) {
    for (const vec2& p : positions) {
      const node_id id = medium.add_node(p, {});
      agents.push_back(std::make_unique<reconfig_agent>(medium, id, cfg));
    }
  }

  static reconfig_config default_config() {
    reconfig_config cfg;
    cfg.agent.round_timeout = 0.2;
    cfg.ndp.beacon_interval = 1.0;
    cfg.ndp.miss_limit = 3;
    cfg.ndp.achange_threshold = 0.05;
    return cfg;
  }

  void start(double ndp_until) {
    for (std::size_t i = 0; i < agents.size(); ++i) {
      // Stagger beacons so they do not all collide on the same tick.
      reconfig_agent* a = agents[i].get();
      a->start(ndp_until);
    }
  }

  /// Topology = symmetric closure of live agents' neighbor tables,
  /// restricted to live nodes.
  [[nodiscard]] graph::undirected_graph live_topology() const {
    std::vector<graph::edge> edges;
    for (node_id u = 0; u < agents.size(); ++u) {
      if (!medium.is_up(u)) continue;
      for (const auto& [v, info] : agents[u]->cbtc().neighbors()) {
        if (medium.is_up(v)) edges.push_back({u, v});
      }
    }
    return graph::undirected_graph::from_edges(agents.size(), std::move(edges));
  }

  /// G_R over live nodes only (dead nodes isolated).
  [[nodiscard]] graph::undirected_graph live_gr() const {
    const auto full = graph::build_max_power_graph(medium.positions(), pm.max_range());
    std::vector<bool> up(agents.size());
    for (node_id u = 0; u < agents.size(); ++u) up[u] = medium.is_up(u);
    return full.induced(up);
  }
};

TEST(Ndp, BeaconsPopulateTables) {
  reconfig_net net({{0, 0}, {200, 0}, {900, 0}});
  net.start(10.0);
  net.simulator.run_until(10.0);
  // 0 and 1 hear each other; 2 is out of range of both (> 500).
  EXPECT_TRUE(net.agents[0]->ndp().table().contains(1));
  EXPECT_TRUE(net.agents[1]->ndp().table().contains(0));
  EXPECT_FALSE(net.agents[0]->ndp().table().contains(2));
  EXPECT_GT(net.agents[0]->ndp().beacons_sent(), 5u);
}

TEST(Ndp, InitialJoinsFire) {
  reconfig_net net({{0, 0}, {200, 0}});
  net.start(10.0);
  net.simulator.run_until(10.0);
  EXPECT_GE(net.agents[0]->stats().joins, 1u);
  EXPECT_GE(net.agents[1]->stats().joins, 1u);
}

TEST(Ndp, LeaveFiresAfterMissedBeacons) {
  reconfig_net net({{0, 0}, {200, 0}});
  net.start(30.0);
  net.simulator.run_until(10.0);
  ASSERT_TRUE(net.agents[0]->ndp().table().contains(1));

  net.medium.crash(1);
  net.simulator.run_until(20.0);  // > miss_limit * interval after crash
  EXPECT_FALSE(net.agents[0]->ndp().table().contains(1));
  EXPECT_GE(net.agents[0]->stats().leaves, 1u);
  EXPECT_FALSE(net.agents[0]->cbtc().neighbors().contains(1));
}

TEST(Ndp, BeaconPowerCoversNeighbors) {
  // Each node's beacon power must reach its farthest E_alpha neighbor
  // (Section 4's requirement for reconfiguration to work).
  const auto positions = geom::uniform_points(40, geom::bbox::rect(1200, 1200), 5);
  reconfig_net net(positions);
  net.start(15.0);
  net.simulator.run_until(15.0);
  for (node_id u = 0; u < positions.size(); ++u) {
    const double beacon = net.agents[u]->beacon_power();
    for (const auto& [v, info] : net.agents[u]->cbtc().neighbors()) {
      EXPECT_GE(beacon + 1e-9, info.required_power) << "u=" << u << " v=" << v;
    }
    if (net.agents[u]->cbtc().boundary()) {
      EXPECT_DOUBLE_EQ(beacon, pm.max_power());
    }
  }
}

TEST(Reconfig, InitialRunMatchesConnectivity) {
  const auto positions = geom::uniform_points(50, geom::bbox::rect(1200, 1200), 7);
  reconfig_net net(positions);
  net.start(20.0);
  net.simulator.run_until(20.0);
  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
}

TEST(Reconfig, CrashesHealViaLeaveAndRegrow) {
  const auto positions = geom::uniform_points(50, geom::bbox::rect(1200, 1200), 11);
  reconfig_net net(positions);
  net.start(80.0);
  net.simulator.run_until(15.0);  // initial topology settled

  sim::failure_injector inj(net.medium, 3);
  inj.random_crashes(6, 16.0, 18.0);
  net.simulator.run_until(80.0);  // leaves detected, regrows settled

  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
  std::uint64_t regrows = 0;
  for (const auto& a : net.agents) regrows += a->stats().regrows;
  // Crashing 6 of 50 nodes almost surely opened someone's cone.
  EXPECT_GT(regrows, 0u);
}

TEST(Reconfig, RestartedNodeRejoins) {
  const auto positions = geom::uniform_points(30, geom::bbox::rect(900, 900), 13);
  reconfig_net net(positions);
  net.start(100.0);
  net.simulator.run_until(15.0);

  net.medium.crash(0);
  net.simulator.run_until(40.0);
  EXPECT_FALSE(net.live_topology().degree(0) > 0);

  net.medium.restart(0);
  net.simulator.run_until(100.0);
  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
  // The restarted node is wired back in (it has G_R neighbors).
  if (net.live_gr().degree(0) > 0) {
    EXPECT_GT(net.live_topology().degree(0), 0u);
  }
}

TEST(Reconfig, MobilityTriggersAChangeAndPreservesConnectivity) {
  const auto positions = geom::uniform_points(40, geom::bbox::rect(1000, 1000), 17);
  reconfig_net net(positions);
  net.start(120.0);
  net.simulator.run_until(15.0);

  // Drift all nodes slowly (speed 2/time-unit for 40 units: each node
  // moves ~80 units, plenty for aChange events at 0.05 rad threshold).
  sim::random_waypoint rw(net.medium,
                          {.region = geom::bbox::rect(1000, 1000), .min_speed = 1.0,
                           .max_speed = 3.0, .pause = 0.0},
                          23);
  rw.start(0.5, 55.0);
  net.simulator.run_until(120.0);  // motion stopped at 55; settle after

  std::uint64_t achanges = 0;
  for (const auto& a : net.agents) achanges += a->stats().achanges;
  EXPECT_GT(achanges, 0u);
  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
}

TEST(Reconfig, PartitionRejoinHealsViaBoundaryBeacons) {
  // Section 4's subtle scenario: two groups start out of range (two
  // G_R components), then one group moves into range. If boundary
  // nodes beaconed at their shrunk power the groups would never hear
  // each other; the paper's rule (boundary nodes beacon at the basic
  // algorithm's power, i.e. max power) makes the rejoin observable.
  std::vector<vec2> positions;
  // Group A: triangle near the origin.
  positions.push_back({0, 0});
  positions.push_back({150, 0});
  positions.push_back({75, 130});
  // Group B: triangle 1400 units away (out of range R=500).
  positions.push_back({1400, 0});
  positions.push_back({1550, 0});
  positions.push_back({1475, 130});

  reconfig_net net(positions);
  net.start(200.0);
  net.simulator.run_until(15.0);

  // Initially: two components, both in G_R and in the protocol state.
  EXPECT_EQ(graph::connected_components(net.live_gr()).count, 2u);
  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
  // Everyone is a boundary node here (6 nodes cannot close 5pi/6
  // cones), so everyone beacons at max power — the paper's rule.
  for (const auto& a : net.agents) {
    EXPECT_DOUBLE_EQ(a->beacon_power(), pm.max_power());
  }

  // Group B drifts toward group A: teleport in small steps (the NDP
  // only ever samples positions at beacon time anyway).
  for (int step = 1; step <= 10; ++step) {
    for (node_id u = 3; u < 6; ++u) {
      geom::vec2 p = net.medium.position(u);
      p.x -= 100.0;
      net.medium.set_position(u, p);
    }
    net.simulator.run_until(15.0 + 4.0 * step);
  }
  net.simulator.run_until(200.0);

  // Now the field is one component and the protocol noticed: joins
  // fired across the old partition boundary and the topology reconnects.
  EXPECT_EQ(graph::connected_components(net.live_gr()).count, 1u);
  EXPECT_TRUE(graph::same_connectivity(net.live_topology(), net.live_gr()));
  EXPECT_TRUE(graph::reachable(net.live_topology(), 0, 3));
}

// Direct oracle for the dynamic engine's closure mirror: a
// graph::closure_mirror fed only by the agents' table deltas and the
// medium's liveness hook must equal a re-read of every live agent's
// table (live_topology) at every instant where a table or the live set
// changed — through crashes, a restart and waypoint mobility, under
// isotropic and lognormal-shadowed links.
TEST(Reconfig, ClosureMirrorMatchesTableReReadAtEveryChangedInstant) {
  const auto positions = geom::uniform_points(40, geom::bbox::rect(1100, 1100), 29);
  for (const bool shadowed : {false, true}) {
    SCOPED_TRACE(shadowed ? "shadowed" : "isotropic");
    const radio::link_model link(
        pm, shadowed ? radio::propagation_model::lognormal_shadowing(3.0, 6.0, 29)
                     : radio::propagation_model::isotropic());
    reconfig_net net(positions, reconfig_net::default_config(), link);

    graph::closure_mirror mirror(positions.size());
    for (node_id u = 0; u < positions.size(); ++u) {
      net.agents[u]->set_table_hook([&mirror, &net, u](node_id v, bool added) {
        if (added) {
          mirror.add_arc(u, v);
        } else {
          mirror.remove_arc(u, v);
        }
        net.simulator.request_instant_hook();
      });
    }
    net.medium.set_liveness_hook([&mirror, &net](node_id u, bool up) {
      mirror.set_live(u, up);
      net.simulator.request_instant_hook();
    });
    std::size_t checks = 0;
    std::size_t mismatches = 0;
    double first_mismatch = -1.0;
    net.simulator.set_instant_hook([&] {
      ++checks;
      if (!(mirror.live_graph() == net.live_topology())) {
        if (mismatches++ == 0) first_mismatch = net.simulator.now();
      }
    });

    net.start(90.0);
    sim::failure_injector inj(net.medium, 5);
    inj.random_crashes(5, 16.0, 20.0);
    inj.crash_at(0, 18.0);
    inj.restart_at(0, 35.0);
    sim::random_waypoint rw(net.medium,
                            {.region = geom::bbox::rect(1100, 1100), .min_speed = 1.0,
                             .max_speed = 3.0, .pause = 0.0},
                            31);
    net.simulator.schedule_at(15.0, [&] { rw.start(0.5, 60.0); });
    net.simulator.run_until(90.0);

    EXPECT_EQ(mismatches, 0u) << "first at t=" << first_mismatch;
    std::uint64_t leaves = 0;
    std::uint64_t regrows = 0;
    std::uint64_t achanges = 0;
    for (const auto& a : net.agents) {
      leaves += a->stats().leaves;
      regrows += a->stats().regrows;
      achanges += a->stats().achanges;
    }
    // The comparison must have run through real churn.
    EXPECT_GT(checks, 100u);
    EXPECT_GT(leaves, 0u);
    EXPECT_GT(regrows, 0u);
    EXPECT_GT(achanges, 0u);
    EXPECT_TRUE(net.medium.is_up(0));
  }
}

TEST(Reconfig, StationaryNetworkStaysQuiet) {
  // No churn: after the initial joins, no leaves / regrows happen.
  const auto positions = geom::uniform_points(30, geom::bbox::rect(900, 900), 19);
  reconfig_net net(positions);
  net.start(40.0);
  net.simulator.run_until(40.0);
  for (const auto& a : net.agents) {
    EXPECT_EQ(a->stats().leaves, 0u);
    EXPECT_EQ(a->stats().achanges, 0u);
  }
}

}  // namespace
}  // namespace cbtc::proto
