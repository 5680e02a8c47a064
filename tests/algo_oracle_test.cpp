#include "algo/oracle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <string>

#include "digest.h"
#include "direction_set.h"
#include "geom/angle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"
#include "radio/power_model.h"
#include "radio/propagation.h"

namespace cbtc::algo {
namespace {

using geom::pi;
using geom::vec2;

const radio::power_model pm(2.0, 500.0);

TEST(Oracle, EmptyNetwork) {
  const cbtc_result r = run_cbtc({}, pm, {});
  EXPECT_EQ(r.num_nodes(), 0u);
}

TEST(Oracle, InvalidParamsThrow) {
  const std::vector<vec2> pts{{0, 0}};
  cbtc_params p;
  p.alpha = 0.0;
  EXPECT_THROW(run_cbtc(pts, pm, p), std::invalid_argument);
  p.alpha = geom::two_pi;
  EXPECT_THROW(run_cbtc(pts, pm, p), std::invalid_argument);
  p = {};
  p.increase_factor = 1.0;
  EXPECT_THROW(run_cbtc(pts, pm, p), std::invalid_argument);
}

TEST(Oracle, IsolatedNodeIsBoundaryAtMaxPower) {
  const std::vector<vec2> pts{{0, 0}, {5000, 5000}};
  for (growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
    cbtc_params p;
    p.mode = mode;
    const cbtc_result r = run_cbtc(pts, pm, p);
    for (const node_result& n : r.nodes) {
      EXPECT_TRUE(n.boundary);
      EXPECT_TRUE(n.neighbors.empty());
      EXPECT_DOUBLE_EQ(n.final_power, pm.max_power());
    }
  }
}

TEST(Oracle, TwoNodesDiscoverEachOther) {
  const std::vector<vec2> pts{{0, 0}, {100, 0}};
  const cbtc_result r = run_cbtc(pts, pm, {});
  // Two nodes can never close every 5*pi/6 cone: both are boundary and
  // reach max power, but they do find each other.
  ASSERT_EQ(r.nodes[0].neighbors.size(), 1u);
  EXPECT_EQ(r.nodes[0].neighbors[0].id, 1u);
  EXPECT_TRUE(r.nodes[0].boundary);
  EXPECT_NEAR(r.nodes[0].neighbors[0].distance, 100.0, 1e-9);
  EXPECT_NEAR(r.nodes[0].neighbors[0].direction, 0.0, 1e-12);
  EXPECT_NEAR(r.nodes[1].neighbors[0].direction, pi, 1e-12);
  EXPECT_TRUE(r.symmetric_closure().has_edge(0, 1));
  EXPECT_TRUE(r.symmetric_core().has_edge(0, 1));
}

TEST(Oracle, SurroundedNodeStopsEarlyDiscrete) {
  // A center node ringed by 6 close nodes at distance 60 has no
  // alpha-gap long before max power.
  std::vector<vec2> pts{{0, 0}};
  for (int i = 0; i < 6; ++i) pts.push_back(geom::polar({0, 0}, 60.0, i * pi / 3.0));
  cbtc_params p;  // discrete doubling from p(500/16)
  const cbtc_result r = run_cbtc(pts, pm, p);
  const node_result& center = r.nodes[0];
  EXPECT_FALSE(center.boundary);
  EXPECT_EQ(center.neighbors.size(), 6u);
  EXPECT_LT(center.final_power, pm.max_power());
  // Discrete doubling: final power is one of the level powers and at
  // most a factor-2 overshoot of p(60).
  EXPECT_GE(center.final_power, pm.required_power(60.0));
  EXPECT_LE(center.final_power, 2.0 * pm.required_power(60.0));
}

TEST(Oracle, ContinuousModeStopsAtExactPower) {
  std::vector<vec2> pts{{0, 0}};
  for (int i = 0; i < 6; ++i) pts.push_back(geom::polar({0, 0}, 60.0 + i, i * pi / 3.0));
  cbtc_params p;
  p.mode = growth_mode::continuous;
  const cbtc_result r = run_cbtc(pts, pm, p);
  const node_result& center = r.nodes[0];
  EXPECT_FALSE(center.boundary);
  // Continuous growth stops at exactly the power reaching the last
  // neighbor needed for coverage. Ring nodes sit at 60..65 at 60-degree
  // spacing; after the first five (distances 60..64) the largest gap is
  // 120 degrees < alpha, so the 65-distance node is never needed.
  EXPECT_NEAR(center.final_power, pm.required_power(64.0), 1e-6);
  EXPECT_EQ(center.neighbors.size(), 5u);
}

TEST(Oracle, DiscreteNeighborsAreAllNodesWithinFinalRadius) {
  // The Figure 1 loop absorbs *everyone* discovered en route, not just
  // the nodes needed for coverage.
  std::vector<vec2> pts{{0, 0}};
  for (int i = 0; i < 6; ++i) pts.push_back(geom::polar({0, 0}, 60.0, i * pi / 3.0));
  pts.push_back({70.0, 5.0});  // extra node inside the final radius
  const cbtc_result r = run_cbtc(pts, pm, {});
  const node_result& center = r.nodes[0];
  const double final_radius = pm.range(center.final_power);
  std::size_t within = 0;
  for (std::size_t v = 1; v < pts.size(); ++v) {
    if (pts[v].norm() <= final_radius) ++within;
  }
  EXPECT_EQ(center.neighbors.size(), within);
}

TEST(Oracle, LevelPowersGrowByFactor) {
  const std::vector<vec2> pts = geom::uniform_points(60, geom::bbox::rect(1500, 1500), 5);
  cbtc_params p;
  p.increase_factor = 2.0;
  const cbtc_result r = run_cbtc(pts, pm, p);
  for (const node_result& n : r.nodes) {
    ASSERT_FALSE(n.level_powers.empty());
    for (std::size_t i = 0; i + 1 < n.level_powers.size(); ++i) {
      // Each level doubles, except the last which may clamp at P.
      if (i + 2 == n.level_powers.size()) {
        EXPECT_LE(n.level_powers[i + 1], 2.0 * n.level_powers[i] + 1e-9);
      } else {
        EXPECT_NEAR(n.level_powers[i + 1], 2.0 * n.level_powers[i], 1e-6);
      }
      EXPECT_GT(n.level_powers[i + 1], n.level_powers[i]);
    }
    EXPECT_LE(n.final_power, pm.max_power());
  }
}

TEST(Oracle, NeighborLevelsMatchLevelPowers) {
  const std::vector<vec2> pts = geom::uniform_points(80, geom::bbox::rect(1500, 1500), 9);
  const cbtc_result r = run_cbtc(pts, pm, {});
  for (const node_result& n : r.nodes) {
    for (const neighbor_record& rec : n.neighbors) {
      ASSERT_LT(rec.level, n.level_powers.size());
      EXPECT_DOUBLE_EQ(rec.discovery_power, n.level_powers[rec.level]);
      // The neighbor is reachable at its discovery level…
      EXPECT_LE(pm.required_power(rec.distance), rec.discovery_power + 1e-9);
      // …but not at the previous level (it would have been found earlier).
      if (rec.level > 0) {
        EXPECT_GT(pm.required_power(rec.distance), n.level_powers[rec.level - 1] - 1e-9);
      }
    }
  }
}

TEST(Oracle, BoundaryNodesBroadcastAtMaxPower) {
  const std::vector<vec2> pts = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 3);
  const cbtc_result r = run_cbtc(pts, pm, {});
  for (const node_result& n : r.nodes) {
    if (n.boundary) {
      EXPECT_DOUBLE_EQ(n.final_power, pm.max_power());
    } else {
      EXPECT_FALSE(geom::has_alpha_gap(directions(n), r.params.alpha));
    }
  }
  // In a 1500x1500 field with R=500, nodes near the border always have
  // an uncovered outward cone: boundary nodes must exist.
  EXPECT_GT(r.boundary_count(), 0u);
}

TEST(Oracle, SmallerAlphaNeedsMorePower) {
  const std::vector<vec2> pts = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 17);
  cbtc_params narrow, wide;
  narrow.alpha = alpha_two_pi_three;
  wide.alpha = alpha_five_pi_six;
  const cbtc_result rn = run_cbtc(pts, pm, narrow);
  const cbtc_result rw = run_cbtc(pts, pm, wide);
  // Per node: covering narrower cones can only require equal-or-more
  // power (the paper: p_{u,5pi/6} <= p_{u,2pi/3}).
  for (std::size_t u = 0; u < pts.size(); ++u) {
    EXPECT_LE(rw.nodes[u].final_power, rn.nodes[u].final_power + 1e-9);
  }
}

TEST(Oracle, SymmetricClosurePreservesConnectivityOnPaperWorkload) {
  const std::vector<vec2> pts = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 23);
  const graph::undirected_graph gr = graph::build_max_power_graph(pts, pm.max_range());
  for (growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
    cbtc_params p;
    p.mode = mode;
    const cbtc_result r = run_cbtc(pts, pm, p);
    EXPECT_TRUE(graph::same_connectivity(r.symmetric_closure(), gr));
  }
}

TEST(Oracle, NeighborsSortedByDistance) {
  const std::vector<vec2> pts = geom::uniform_points(50, geom::bbox::rect(800, 800), 31);
  const cbtc_result r = run_cbtc(pts, pm, {});
  for (const node_result& n : r.nodes) {
    for (std::size_t i = 0; i + 1 < n.neighbors.size(); ++i) {
      EXPECT_LE(n.neighbors[i].distance, n.neighbors[i + 1].distance);
    }
  }
}

TEST(Oracle, OutRadiusMatchesFarthestNeighbor) {
  const std::vector<vec2> pts = geom::uniform_points(50, geom::bbox::rect(800, 800), 37);
  const cbtc_result r = run_cbtc(pts, pm, {});
  for (const node_result& n : r.nodes) {
    if (n.neighbors.empty()) {
      EXPECT_DOUBLE_EQ(n.out_radius(), 0.0);
    } else {
      EXPECT_DOUBLE_EQ(n.out_radius(), n.neighbors.back().distance);
      EXPECT_LE(pm.required_power(n.out_radius()), n.final_power + 1e-9);
    }
  }
}

TEST(Oracle, InitialPowerRespected) {
  const std::vector<vec2> pts{{0, 0}, {10, 0}, {-10, 5}, {0, -12}};
  cbtc_params p;
  p.initial_power = pm.required_power(100.0);
  const cbtc_result r = run_cbtc(pts, pm, p);
  // First level = Increase(p0) = 2 * p(100).
  ASSERT_FALSE(r.nodes[0].level_powers.empty());
  EXPECT_DOUBLE_EQ(r.nodes[0].level_powers[0], 2.0 * pm.required_power(100.0));
}

TEST(Oracle, KnowsLookup) {
  const std::vector<vec2> pts{{0, 0}, {50, 0}};
  const cbtc_result r = run_cbtc(pts, pm, {});
  EXPECT_TRUE(r.nodes[0].knows(1));
  EXPECT_FALSE(r.nodes[0].knows(0));
  EXPECT_FALSE(r.nodes[0].knows(99));
}

/// Every field of every node_result as one byte string; doubles are
/// written as hex floats, so the digest pins them bit for bit.
std::string growth_bytes(const cbtc_result& r) {
  std::string bytes;
  const auto num = [&](double x) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, x, std::chars_format::hex);
    bytes.append(buf, end);
    bytes += ' ';
  };
  for (const node_result& n : r.nodes) {
    for (const neighbor_record& rec : n.neighbors) {
      bytes += std::to_string(rec.id) + ' ';
      num(rec.distance);
      num(rec.direction);
      bytes += std::to_string(rec.level) + ' ';
      num(rec.discovery_power);
    }
    bytes += '|';
    for (const double p : n.level_powers) num(p);
    bytes += '|';
    num(n.final_power);
    bytes += n.boundary ? "boundary\n" : "covered\n";
  }
  return bytes;
}

/// The growth records of both kernels under every propagation model,
/// pinned by digest: the discrete kernels and the per-neighbor levels
/// and tags that shrink-back reads appear in no report digest.
TEST(AlgoOracle, GrowthRecordDigestsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"isotropic_n2/discrete", 0x70da38c8e83fecc5ULL},
      {"isotropic_n2/continuous", 0xd19783eb475eade4ULL},
      {"isotropic_n3/discrete", 0x39683626dcf5d714ULL},
      {"isotropic_n3/continuous", 0xefecb5bcdab963b2ULL},
      {"shadowing/discrete", 0xbe71a16a8a6580f4ULL},
      {"shadowing/continuous", 0x63c1b7da47b16604ULL},
      {"obstacles/discrete", 0x5525748dc39d1e45ULL},
      {"obstacles/continuous", 0xd456a194c2176cafULL},
  };
  struct growth_case {
    std::string name;
    radio::link_model link;
    double alpha;
    double increase_factor;
    std::uint64_t seed;
  };
  const std::vector<growth_case> cases = {
      {"isotropic_n2", radio::power_model(2.0, 500.0), alpha_five_pi_six, 2.0, 1},
      {"isotropic_n3", radio::power_model(3.0, 500.0), alpha_two_pi_three, 1.5, 2},
      {"shadowing",
       {radio::power_model(2.0, 500.0), radio::propagation_model::lognormal_shadowing(4.0, 8.0, 9)},
       alpha_five_pi_six, 1.5, 3},
      {"obstacles",
       {radio::power_model(2.0, 500.0),
        radio::propagation_model::obstacle_field({
            {.box = {{300.0, 300.0}, {700.0, 600.0}}, .loss_db = 9.0},
            {.box = {{800.0, 900.0}, {1200.0, 1200.0}}, .loss_db = 6.0},
        })},
       alpha_two_pi_three, 2.0, 4},
  };
  for (const growth_case& c : cases) {
    // A seeded uniform field plus one node coincident with its
    // easternmost node. The pair has no bearing; were one taken
    // (atan2(0, 0) = 0, due east), it would split that node's
    // eastward alpha-gap.
    std::vector<vec2> pts = geom::uniform_points(150, geom::bbox::rect(1500, 1500), c.seed);
    pts.push_back(*std::max_element(pts.begin(), pts.end(),
                                    [](const vec2& a, const vec2& b) { return a.x < b.x; }));
    for (const growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
      const std::string label =
          c.name + (mode == growth_mode::discrete ? "/discrete" : "/continuous");
      for (const unsigned threads : {1u, 4u}) {
        cbtc_params p;
        p.alpha = c.alpha;
        p.increase_factor = c.increase_factor;
        p.mode = mode;
        p.intra_threads = threads;
        const std::uint64_t d = digest(growth_bytes(run_cbtc(pts, c.link, p)));
        const auto it = golden.find(label);
        EXPECT_TRUE(it != golden.end() && d == it->second)
            << "{\"" << label << "\", 0x" << std::hex << d << "ULL}, threads " << std::dec
            << threads;
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::algo
