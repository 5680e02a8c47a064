#include "algo/augment.h"

#include <gtest/gtest.h>

#include "algo/pipeline.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/robustness.h"
#include "graph/traversal.h"
#include "graph_fixtures.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

TEST(Augment, FixesASimpleAvoidableBridge) {
  // Square with one diagonal path: topology is the 3-edge path
  // 0-1-2-3, G_R contains the closing edge 3-0 (and 0-2, 1-3 are too
  // long). Every path edge is an avoidable bridge.
  const std::vector<vec2> pts{{0, 0}, {400, 0}, {400, 400}, {0, 400}};
  const graph::undirected_graph path = graph::make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  const augment_result res = augment_bridge_resilience(path, pts, 500.0);
  EXPECT_TRUE(res.topology.has_edge(0, 3));
  EXPECT_TRUE(graph::bridges(res.topology).empty());
  EXPECT_EQ(res.edges_added, 1u);
  EXPECT_EQ(res.unavoidable_bridges, 0u);
}

TEST(Augment, LeavesUnavoidableBridges) {
  // A dumbbell: two triangles joined by one long link that G_R cannot
  // bypass. The bridge must survive and be reported.
  const std::vector<vec2> pts{{0, 0},    {100, 0},   {50, 80},     // left triangle
                              {1000, 0}, {1100, 0},  {1050, 80}};  // right triangle
  // The long bridge {1, 3}: d(1,3) = 900 — pretend an out-of-band
  // relay made it possible by testing with a larger range for this
  // single link. Instead keep it in-range: use max_range 1000 for this
  // test.
  const graph::undirected_graph g =
      graph::make_graph(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {1, 3}});
  const augment_result res = augment_bridge_resilience(g, pts, 1000.0);
  EXPECT_TRUE(res.topology.has_edge(1, 3));
  // G_R at range 1000 contains more cross edges (e.g. 2-5 at ~953)…
  // so the bridge may actually be avoidable. Tighten: use range 940,
  // where only 0/1/2 x 3 distances up to 940 qualify.
  const augment_result tight = augment_bridge_resilience(g, pts, 940.0);
  // Cross-pair distances: (1,3)=900, (2,3)=~953, (1,4)=1000, others more.
  // Only (1,3) crosses at range 940: the bridge is unavoidable.
  EXPECT_EQ(tight.edges_added, 0u);
  EXPECT_GE(tight.unavoidable_bridges, 1u);
  (void)res;
}

TEST(Augment, NoBridgesIsNoOp) {
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {50, 80}};
  const graph::undirected_graph tri = graph::make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  const augment_result res = augment_bridge_resilience(tri, pts, 500.0);
  EXPECT_EQ(res.edges_added, 0u);
  EXPECT_EQ(res.topology, tri);
}

TEST(Augment, OutputIsSubgraphOfGrAndSuperset) {
  const auto pts = geom::uniform_points(80, geom::bbox::rect(1400, 1400), 3);
  cbtc_params params;
  const auto base = build_topology(pts, pm, params, optimization_set::all()).topology;
  const augment_result res = augment_bridge_resilience(base, pts, pm.max_range());

  const auto gr = graph::build_max_power_graph(pts, pm.max_range());
  for (const graph::edge& e : res.topology.edges()) {
    EXPECT_TRUE(gr.has_edge(e.u, e.v));
  }
  for (const graph::edge& e : base.edges()) {
    EXPECT_TRUE(res.topology.has_edge(e.u, e.v));
  }
  EXPECT_EQ(res.topology.num_edges(), base.num_edges() + res.edges_added);
}

TEST(Augment, EveryRemainingBridgeIsUnavoidable) {
  for (std::uint64_t seed : {5u, 6u, 7u}) {
    const auto pts = geom::uniform_points(70, geom::bbox::rect(1300, 1300), seed);
    cbtc_params params;
    const auto base = build_topology(pts, pm, params, optimization_set::all()).topology;
    const augment_result res = augment_bridge_resilience(base, pts, pm.max_range());
    const auto gr = graph::build_max_power_graph(pts, pm.max_range());

    for (const graph::edge& b : graph::bridges(res.topology)) {
      // Removing the bridge must split G_R's corresponding region too:
      // no G_R edge (other than b itself) crosses the topology cut.
      const auto sides = graph::connected_components(graph::without_edge(res.topology, b));
      for (const graph::edge& ge : gr.edges()) {
        if (ge == b || res.topology.has_edge(ge.u, ge.v)) continue;
        EXPECT_TRUE(sides.same_component(ge.u, ge.v))
            << "seed " << seed << ": G_R edge " << ge.u << "-" << ge.v
            << " could have bypassed bridge " << b.u << "-" << b.v;
      }
    }
  }
}

TEST(Augment, SharplyReducesBridgeCountOnCbtcOutput) {
  const auto pts = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 11);
  cbtc_params params;
  const auto base = build_topology(pts, pm, params, optimization_set::all()).topology;
  const augment_result res = augment_bridge_resilience(base, pts, pm.max_range());
  EXPECT_LT(graph::bridges(res.topology).size(), graph::bridges(base).size());
  // Cost: modest degree increase.
  EXPECT_LT(graph::average_degree(res.topology), graph::average_degree(base) + 2.0);
}

TEST(Augment, ConnectivityUnchanged) {
  const auto pts = geom::uniform_points(60, geom::bbox::rect(1300, 1300), 13);
  cbtc_params params;
  const auto base = build_topology(pts, pm, params, optimization_set::all()).topology;
  const augment_result res = augment_bridge_resilience(base, pts, pm.max_range());
  EXPECT_TRUE(graph::same_connectivity(res.topology, base));
}

}  // namespace
}  // namespace cbtc::algo
