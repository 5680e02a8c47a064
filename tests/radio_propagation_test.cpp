// The per-link propagation layer (radio/propagation.h) and its
// consumers, cross-checked against the pre-propagation reference path:
//
//   * isotropic link_model arithmetic is bitwise-identical to the bare
//     power_model (required power, rx power, decodability, G_R) — the
//     refactor must be invisible when gains are 1 (the oracle's growth
//     records are pinned by digest in algo_oracle_test);
//   * shadowing gains are symmetric, reproducible, bounded by the
//     clamp, and independent of call order and thread count;
//   * obstacle gains follow segment-rectangle intersections exactly;
//   * the gain-aware max-power graph (grid) matches the O(n^2) brute
//     reference, and the live_neighbor_index maintains it exactly
//     through arbitrary churn (moves, crashes, restarts);
//   * the medium's delivery decisions and reception powers carry the
//     per-link budget, so a receiver's power estimate equals the true
//     per-link required power.
#include <gtest/gtest.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <random>
#include <vector>

#include "algo/oracle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph_fixtures.h"
#include "radio/propagation.h"
#include "sim/medium.h"
#include "sim/simulator.h"
#include "util/parallel.h"

namespace cbtc {
namespace {

using geom::vec2;

std::vector<vec2> random_field(std::size_t n, double side, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(side, side), seed);
}

radio::propagation_model shadowing(std::uint64_t seed = 7) {
  return radio::propagation_model::lognormal_shadowing(4.0, 8.0, seed);
}

radio::propagation_model two_blocks() {
  return radio::propagation_model::obstacle_field({
      {.box = {{200.0, 200.0}, {500.0, 450.0}}, .loss_db = 9.0},
      {.box = {{600.0, 500.0}, {900.0, 800.0}}, .loss_db = 6.0},
  });
}

// ---- isotropic: the refactor must be invisible ----------------------

TEST(Propagation, IsotropicLinkModelMatchesPowerModelBitwise) {
  const radio::power_model pm(2.5, 437.0);
  const radio::link_model link(pm);  // implicit isotropic propagation
  ASSERT_TRUE(link.is_isotropic());
  EXPECT_EQ(link.max_candidate_range(), pm.max_range());
  EXPECT_EQ(link.max_power(), pm.max_power());

  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  for (int i = 0; i < 500; ++i) {
    const vec2 a{coord(rng), coord(rng)};
    const vec2 b{coord(rng), coord(rng)};
    const double d = geom::distance(a, b);
    const double tx = pm.required_power(coord(rng) + 1.0);
    EXPECT_EQ(link.gain(0, 1, a, b), 1.0);
    EXPECT_EQ(link.required_power(0, 1, a, b), pm.required_power(d));  // bitwise
    EXPECT_EQ(link.rx_power_at(tx, d, 0, 1, a, b), pm.rx_power(tx, d));
    EXPECT_EQ(link.reaches_at(tx, d, 0, 1, a, b), pm.reaches(tx, d));
  }
}

TEST(Propagation, IsotropicMaxPowerGraphIdenticalToDistancePath) {
  const auto positions = random_field(300, 2000.0, 41);
  const radio::link_model link(radio::power_model(2.0, 500.0));
  EXPECT_EQ(graph::build_max_power_graph(positions, link),
            graph::build_max_power_graph(positions, 500.0));
  EXPECT_EQ(graph::build_max_power_graph_brute(positions, link),
            graph::build_max_power_graph_brute(positions, 500.0));
}

// ---- shadowing gains ------------------------------------------------

TEST(Propagation, ShadowingGainIsSymmetricDeterministicAndClamped) {
  const radio::propagation_model m = shadowing();
  const double lo = std::pow(10.0, -8.0 / 10.0);
  const double hi = std::pow(10.0, 8.0 / 10.0);
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<std::uint32_t> id(0, 5000);
  const vec2 p{0.0, 0.0};
  const vec2 q{10.0, 10.0};
  bool saw_non_unit = false;
  for (int i = 0; i < 2000; ++i) {
    const std::uint32_t u = id(rng);
    const std::uint32_t v = id(rng);
    if (u == v) continue;
    const double g = m.gain(u, v, p, q);
    EXPECT_EQ(g, m.gain(v, u, q, p)) << u << "," << v;  // symmetric, bitwise
    EXPECT_EQ(g, m.gain(u, v, p, q));                   // reproducible
    EXPECT_GE(g, lo);
    EXPECT_LE(g, hi);
    EXPECT_LE(g, m.max_gain());
    if (g != 1.0) saw_non_unit = true;
  }
  EXPECT_TRUE(saw_non_unit);
  // A different seed draws a different field.
  EXPECT_NE(m.gain(1, 2, p, q), shadowing(8).gain(1, 2, p, q));
}

TEST(Propagation, ShadowingGainIndependentOfCallOrderAndThreads) {
  const radio::propagation_model m = shadowing(11);
  const vec2 p{1.0, 2.0};
  const vec2 q{3.0, 4.0};
  const std::size_t n = 4000;

  const auto collect = [&](unsigned threads, bool reversed) {
    std::vector<double> gains(n);
    util::thread_pool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) {
      const std::size_t k = reversed ? n - 1 - i : i;
      gains[k] = m.gain(static_cast<std::uint32_t>(k), static_cast<std::uint32_t>(k + 17), p, q);
    });
    return gains;
  };
  const std::vector<double> serial = collect(1, false);
  EXPECT_EQ(serial, collect(1, true));   // call order
  EXPECT_EQ(serial, collect(4, false));  // thread count
  EXPECT_EQ(serial, collect(8, true));
}

// ---- obstacle fields ------------------------------------------------

TEST(Propagation, ObstacleAttenuatesExactlyCrossingLinks) {
  const radio::propagation_model m = two_blocks();
  EXPECT_EQ(m.max_gain(), 1.0);
  const double g9 = std::pow(10.0, -9.0 / 10.0);
  const double g6 = std::pow(10.0, -6.0 / 10.0);

  // Clear line far from both rectangles.
  EXPECT_EQ(m.gain(0, 1, {0.0, 0.0}, {100.0, 0.0}), 1.0);
  // Straight through the first block.
  EXPECT_EQ(m.gain(0, 1, {100.0, 300.0}, {600.0, 300.0}), g9);
  // Endpoint inside the first block counts as crossing.
  EXPECT_EQ(m.gain(0, 1, {300.0, 300.0}, {1000.0, 300.0}), g9);
  // Diagonal through both blocks compounds the losses (dB add before
  // the single conversion, hence the exact 15 dB expectation).
  EXPECT_EQ(m.gain(0, 1, {150.0, 150.0}, {950.0, 850.0}), std::pow(10.0, -15.0 / 10.0));
  // Grazing exactly along a rectangle edge intersects (closed boxes).
  EXPECT_EQ(m.gain(0, 1, {0.0, 200.0}, {600.0, 200.0}), g9);
  // Vertical segment left of every block.
  EXPECT_EQ(m.gain(0, 1, {50.0, 0.0}, {50.0, 900.0}), 1.0);
}

TEST(Propagation, SegmentBoxIntersectionEdgeCases) {
  const geom::bbox box{{10.0, 10.0}, {20.0, 20.0}};
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 15.0}, {30.0, 15.0}));   // through
  EXPECT_TRUE(radio::segment_intersects_box(box, {15.0, 15.0}, {15.0, 15.0}));  // point inside
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 0.0}, {15.0, 15.0}));    // ends inside
  EXPECT_TRUE(radio::segment_intersects_box(box, {0.0, 10.0}, {30.0, 10.0}));   // along the edge
  EXPECT_TRUE(radio::segment_intersects_box(box, {5.0, 5.0}, {25.0, 25.0}));    // corner diagonal
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 0.0}, {30.0, 5.0}));    // below
  EXPECT_FALSE(radio::segment_intersects_box(box, {25.0, 0.0}, {25.0, 30.0}));  // right of it
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 25.0}, {9.0, 25.0}));   // short, above
  EXPECT_FALSE(radio::segment_intersects_box(box, {0.0, 21.0}, {9.0, 9.0}));    // near corner miss
}

TEST(Propagation, SegmentBoxVerdictIsExactlySymmetricAtGrazingCorners) {
  // Segments aimed within ~1e-12 of a corner: clipped from opposite
  // ends, Liang-Barsky rounds differently, so the verdict must not
  // depend on which endpoint comes first (the first two pairs split
  // when it did).
  const geom::bbox box{{200.0, 200.0}, {500.0, 450.0}};
  const vec2 p1{872.32250461335775, 162.06829726743581};
  const vec2 q1{131.91357082033056, 734.65577823857734};
  const vec2 p2{245.18483639679926, 719.91334882949366};
  const vec2 q2{855.19346876768179, 73.760779061246993};
  EXPECT_EQ(radio::segment_intersects_box(box, p1, q1), radio::segment_intersects_box(box, q1, p1));
  EXPECT_EQ(radio::segment_intersects_box(box, p2, q2), radio::segment_intersects_box(box, q2, p2));

  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> coord(0.0, 1000.0);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const radio::propagation_model walls = radio::propagation_model::obstacle_field(
      {{.box = box, .loss_db = 6.0}, {.box = {{600.0, 100.0}, {700.0, 900.0}}, .loss_db = 3.0}});
  for (int i = 0; i < 100000; ++i) {
    const vec2 p{coord(rng), coord(rng)};
    const vec2 corner{(i & 1) != 0 ? 500.0 : 200.0, (i & 2) != 0 ? 450.0 : 200.0};
    const double t = 1.0 + 2.0 * unit(rng);
    const double eps = (unit(rng) - 0.5) * 1e-12;
    const vec2 q{p.x + (corner.x - p.x) * t + eps, p.y + (corner.y - p.y) * t - eps};
    ASSERT_EQ(radio::segment_intersects_box(box, p, q), radio::segment_intersects_box(box, q, p))
        << "segment " << i;
    ASSERT_EQ(walls.gain(0, 1, p, q), walls.gain(1, 0, q, p)) << "segment " << i;
  }
}

TEST(Propagation, ObstacleValidationRejectsBadInput) {
  EXPECT_THROW(radio::propagation_model::obstacle_field(
                   {{.box = {{5.0, 0.0}, {1.0, 1.0}}, .loss_db = 3.0}}),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::obstacle_field(
                   {{.box = {{0.0, 0.0}, {1.0, 1.0}}, .loss_db = 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::lognormal_shadowing(-1.0, 8.0, 1),
               std::invalid_argument);
  EXPECT_THROW(radio::propagation_model::lognormal_shadowing(4.0, -1.0, 1),
               std::invalid_argument);
}

// ---- gain-aware reachability consumers ------------------------------

TEST(Propagation, MaxCandidateRangeBoundsEveryFeasibleLink) {
  const radio::link_model link(radio::power_model(2.0, 500.0), shadowing(21));
  EXPECT_GT(link.max_candidate_range(), link.max_range());  // gains can exceed 1
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> coord(0.0, 1500.0);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const vec2 a{coord(rng), coord(rng)};
    const vec2 b{coord(rng), coord(rng)};
    if (link.reaches(link.max_power(), i, i + 1, a, b)) {
      EXPECT_LE(geom::distance(a, b), link.max_candidate_range());
    }
  }
}

TEST(Propagation, GainAwareMaxPowerGraphMatchesBruteReference) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto positions = random_field(250, 1800.0, seed);
    const radio::link_model shadowed(radio::power_model(2.0, 500.0), shadowing(seed));
    EXPECT_EQ(graph::build_max_power_graph(positions, shadowed),
              graph::build_max_power_graph_brute(positions, shadowed));
    const radio::link_model blocked(radio::power_model(2.0, 500.0), two_blocks());
    EXPECT_EQ(graph::build_max_power_graph(positions, blocked),
              graph::build_max_power_graph_brute(positions, blocked));
  }
}

TEST(Propagation, OracleUnderShadowingIsThreadCountInvariantAndFeasible) {
  const auto positions = random_field(400, 2600.0, 17);
  const radio::link_model link(radio::power_model(2.0, 500.0), shadowing(17));
  for (const auto mode : {algo::growth_mode::discrete, algo::growth_mode::continuous}) {
    algo::cbtc_params params;
    params.mode = mode;
    params.intra_threads = 1;
    const algo::cbtc_result serial = algo::run_cbtc(positions, link, params);
    params.intra_threads = 4;
    const algo::cbtc_result parallel = algo::run_cbtc(positions, link, params);

    ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
    for (std::size_t u = 0; u < serial.nodes.size(); ++u) {
      EXPECT_EQ(serial.nodes[u].final_power, parallel.nodes[u].final_power) << u;
      EXPECT_EQ(serial.nodes[u].level_powers, parallel.nodes[u].level_powers) << u;
      ASSERT_EQ(serial.nodes[u].neighbors.size(), parallel.nodes[u].neighbors.size()) << u;
      for (std::size_t i = 0; i < serial.nodes[u].neighbors.size(); ++i) {
        EXPECT_EQ(serial.nodes[u].neighbors[i].id, parallel.nodes[u].neighbors[i].id) << u;
      }
      // Every discovered neighbor's link closes within the maximum
      // power, and at the node's final broadcast power.
      for (const algo::neighbor_record& rec : serial.nodes[u].neighbors) {
        const double req = link.required_power(static_cast<graph::node_id>(u), rec.id,
                                               positions[u], positions[rec.id]);
        EXPECT_LE(req, link.max_power() * (1.0 + 1e-12)) << u << "->" << rec.id;
        EXPECT_LE(req, serial.nodes[u].final_power * (1.0 + 1e-12)) << u << "->" << rec.id;
      }
    }
  }
}

// ---- live index under non-uniform gains -----------------------------

/// Applies a random churn script (moves, crashes, restarts) to a
/// link-aware index and checks, after every batch, that its edge set
/// equals a fresh gain-aware G_R over the surviving nodes, and, after
/// every event, that each cached neighbor gain is exactly the gain of
/// its link at the current positions (the medium delivers with them).
void churn_identity(const radio::link_model& link) {
  const std::size_t n = 120;
  const double side = 1200.0;
  std::vector<vec2> positions = random_field(n, side, 77);
  graph::live_neighbor_index index(positions, link);
  std::vector<bool> up(n, true);

  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> coord(0.0, side);
  std::uniform_int_distribution<std::uint32_t> pick(0, n - 1);
  for (int batch = 0; batch < 15; ++batch) {
    for (int ev = 0; ev < 40; ++ev) {
      const graph::node_id u = pick(rng);
      switch (rng() % 4) {
        case 0:
        case 1: {  // move (crashed nodes keep moving, like the medium)
          positions[u] = {coord(rng), coord(rng)};
          if (up[u]) {
            index.move(u, positions[u]);
          }
          break;
        }
        case 2:
          if (up[u]) {
            index.erase(u);
            up[u] = false;
          }
          break;
        default:
          if (!up[u]) {
            index.insert(u, positions[u]);
            up[u] = true;
          }
      }
      for (graph::node_id a = 0; a < n; ++a) {
        const auto nbrs = index.neighbors(a);
        const auto gains = index.neighbor_gains(a);
        ASSERT_EQ(gains.size(), nbrs.size()) << "batch " << batch << " node " << a;
        for (std::size_t i = 0; i < nbrs.size(); ++i) {
          const graph::node_id b = nbrs[i];
          ASSERT_EQ(gains[i], link.gain(a, b, positions[a], positions[b]))
              << "batch " << batch << " event " << ev << " link " << a << " -> " << b;
        }
      }
    }
    // Fresh reference: gain-aware G_R over current positions, with
    // down nodes isolated.
    const graph::undirected_graph ref = graph::build_max_power_graph_brute(positions, link);
    ASSERT_EQ(index.graph(), ref.induced(up)) << "batch " << batch;
  }
}

TEST(Propagation, LiveIndexChurnMatchesFreshRebuildUnderShadowing) {
  churn_identity(radio::link_model(radio::power_model(2.0, 400.0), shadowing(31)));
}

TEST(Propagation, LiveIndexChurnMatchesFreshRebuildUnderObstacles) {
  churn_identity(radio::link_model(radio::power_model(2.0, 400.0), two_blocks()));
}

TEST(Propagation, GainCacheHitsDominateUnderJitter) {
  // Shadowing gains are position-independent, so once a pair has been
  // filtered its gain must come from the cache forever: under small
  // per-tick jitter (mostly re-filtering known pairs) lookups grow a
  // tick at a time while misses barely move.
  const auto positions = random_field(150, 1000.0, 5);
  const radio::link_model link(radio::power_model(2.0, 400.0), shadowing(11));
  graph::live_neighbor_index index(positions, link);
  EXPECT_GT(index.gain_lookups(), 0u);

  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> jitter(-5.0, 5.0);
  std::vector<vec2> pos(positions.begin(), positions.end());
  for (int tick = 0; tick < 10; ++tick) {
    for (graph::node_id u = 0; u < pos.size(); ++u) {
      pos[u] = {pos[u].x + jitter(rng), pos[u].y + jitter(rng)};
      index.move(u, pos[u]);
    }
  }
  EXPECT_GT(index.gain_lookups(), 2 * index.gain_misses());

  // An isotropic index never consults the gain path at all.
  const graph::live_neighbor_index plain(positions, radio::power_model(2.0, 400.0));
  EXPECT_EQ(plain.gain_lookups(), 0u);
}

// ---- the medium carries the per-link budget -------------------------

TEST(Propagation, MediumDeliveryAndEstimateFollowLinkBudget) {
  // One 9 dB wall between nodes 0 and 1; node 2 is in the clear.
  const radio::power_model pm(2.0, 500.0);
  const radio::propagation_model wall = radio::propagation_model::obstacle_field(
      {{.box = {{40.0, -10.0}, {60.0, 10.0}}, .loss_db = 9.0}});
  const radio::link_model link(pm, wall);

  sim::simulator simulator;
  sim::medium medium(simulator, link);
  std::vector<sim::rx_info> at_1;
  std::vector<sim::rx_info> at_2;
  medium.add_node({0.0, 0.0}, {});
  medium.add_node({100.0, 0.0}, {});  // behind the wall
  medium.add_node({0.0, 100.0}, {});  // clear line of sight
  medium.set_handler(1, [&](const sim::rx_info& rx, const std::any&) { at_1.push_back(rx); });
  medium.set_handler(2, [&](const sim::rx_info& rx, const std::any&) { at_2.push_back(rx); });

  // Enough for 100 units in the clear, not through a 9 dB wall.
  medium.broadcast(0, pm.required_power(100.0), 0);
  simulator.run();
  EXPECT_TRUE(at_1.empty());
  ASSERT_EQ(at_2.size(), 1u);
  // The receiver's estimate reconstructs the *isotropic* requirement
  // on the clear link.
  EXPECT_NEAR(pm.estimate_required_power(at_2[0].tx_power, at_2[0].rx_power),
              pm.required_power(100.0), 1e-9);

  // Through the wall the estimate equals the gain-adjusted budget.
  const double through = link.required_power(0, 1, {0.0, 0.0}, {100.0, 0.0});
  EXPECT_GT(through, pm.required_power(100.0));
  at_2.clear();
  medium.broadcast(0, through, 0);
  simulator.run();
  ASSERT_EQ(at_1.size(), 1u);
  EXPECT_NEAR(pm.estimate_required_power(at_1[0].tx_power, at_1[0].rx_power), through,
              through * 1e-9);
}

// ---- in-place mirror connectivity (adjacency views) -----------------

TEST(Propagation, InPlaceMirrorConnectivityMatchesSnapshotComparison) {
  // Random mirrors + indexes; both in-place verdicts must equal the
  // materialized-graph references.
  std::mt19937_64 rng(55);
  std::size_t split_fields = 0;
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 30;
    const auto positions = random_field(n, 900.0, 1000 + round);
    const radio::link_model link(radio::power_model(2.0, 350.0),
                                 round % 2 == 0 ? shadowing(round) : two_blocks());
    graph::live_neighbor_index index(positions, link);
    graph::closure_mirror mirror(n);
    std::uniform_int_distribution<std::uint32_t> pick(0, n - 1);
    for (int arc = 0; arc < 80; ++arc) mirror.add_arc(pick(rng), pick(rng));
    for (int drops = 0; drops < 4; ++drops) {
      const graph::node_id u = pick(rng);
      mirror.set_live(u, false);
      index.erase(u);
    }
    std::vector<bool> up(n);
    for (graph::node_id u = 0; u < n; ++u) up[u] = index.is_live(u);
    graph::connectivity_scratch scratch;
    const graph::connectivity_verdict verdict =
        graph::evaluate_connectivity(mirror, index, scratch);
    EXPECT_EQ(verdict.preserved, graph::same_connectivity(mirror.live_graph(), index.graph()))
        << "round " << round;
    EXPECT_EQ(verdict.field_connected, graph::live_nodes_connected_bfs(index.graph(), up))
        << "round " << round;
    if (!verdict.field_connected) ++split_fields;
  }
  // Both field verdicts must occur for the comparison to mean anything.
  EXPECT_GT(split_fields, 0u);
  EXPECT_LT(split_fields, 50u);
}

}  // namespace
}  // namespace cbtc
