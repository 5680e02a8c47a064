#include "graph/robustness.h"

#include <gtest/gtest.h>

#include <random>

#include "baselines/baselines.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/traversal.h"
#include "graph_fixtures.h"

namespace cbtc::graph {
namespace {

TEST(Articulation, PathInteriorIsAllCuts) {
  const auto cuts = articulation_points(path_graph(5));
  EXPECT_EQ(cuts, (std::vector<node_id>{1, 2, 3}));
}

TEST(Articulation, CycleHasNone) {
  EXPECT_TRUE(articulation_points(cycle_graph(6)).empty());
}

TEST(Articulation, BridgeNodeBetweenTriangles) {
  // Two triangles joined at node 2: node 2 is the unique cut vertex.
  const undirected_graph g = make_graph(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{2});
}

TEST(Articulation, StarCenter) {
  const undirected_graph g = make_graph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{0});
}

TEST(Articulation, DisconnectedComponentsHandled) {
  // A path 0-1-2 (1 is a cut) and a triangle 3-4-5 (no cuts).
  const undirected_graph g = make_graph(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_EQ(articulation_points(g), std::vector<node_id>{1});
}

TEST(Bridges, PathAllBridges) {
  const auto b = bridges(path_graph(4));
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b[0], (edge{0, 1}));
  EXPECT_EQ(b[2], (edge{2, 3}));
}

TEST(Bridges, CycleHasNone) {
  EXPECT_TRUE(bridges(cycle_graph(5)).empty());
}

TEST(Bridges, MixedGraph) {
  // Triangle 0-1-2 with a pendant 2-3: only (2,3) is a bridge.
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {0, 2}, {2, 3}});
  const auto b = bridges(g);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], (edge{2, 3}));
}

TEST(Biconnected, SmallCases) {
  EXPECT_TRUE(is_biconnected(undirected_graph(0)));
  EXPECT_TRUE(is_biconnected(undirected_graph(1)));
  EXPECT_FALSE(is_biconnected(undirected_graph(2)));  // disconnected
  const undirected_graph k2 = make_graph(2, {{0, 1}});
  EXPECT_TRUE(is_biconnected(k2));
  EXPECT_TRUE(is_biconnected(cycle_graph(4)));
  EXPECT_FALSE(is_biconnected(path_graph(3)));
}

TEST(Biconnected, DisconnectedNever) {
  const undirected_graph g = make_graph(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_biconnected(g));
}

// Property: removing an articulation point disconnects its component;
// removing a non-articulation vertex does not change the count of
// components among the remaining vertices.
TEST(Articulation, RemovalProperty) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 12;
    std::vector<edge> edges;
    for (int e = 0; e < 18; ++e) {
      edges.push_back({static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n)});
    }
    const undirected_graph g = make_graph(n, std::move(edges));
    const auto cuts = articulation_points(g);
    std::vector<bool> is_cut(n, false);
    for (node_id c : cuts) is_cut[c] = true;

    const auto base = connected_components(g);
    for (node_id victim = 0; victim < n; ++victim) {
      // g minus victim (victim kept as isolated vertex).
      std::vector<bool> others(n, true);
      others[victim] = false;
      const auto after = connected_components(g.induced(others));
      // Components among the other vertices: subtract the victim's
      // singleton (it had degree >= 1 iff it was in some component).
      const std::size_t before_others = base.count;
      const std::size_t after_others = after.count - (g.degree(victim) > 0 ? 1 : 0);
      if (is_cut[victim]) {
        EXPECT_GT(after_others, before_others) << "victim " << victim << " trial " << trial;
      } else {
        EXPECT_EQ(after_others, before_others) << "victim " << victim << " trial " << trial;
      }
    }
  }
}

// Property: every bridge's removal increases the component count.
TEST(Bridges, RemovalProperty) {
  std::mt19937_64 rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 14;
    std::vector<edge> edges;
    for (int e = 0; e < 16; ++e) {
      edges.push_back({static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n)});
    }
    const undirected_graph g = make_graph(n, std::move(edges));
    const std::size_t base = connected_components(g).count;
    for (const edge& b : bridges(g)) {
      EXPECT_EQ(connected_components(without_edge(g, b)).count, base + 1)
          << "bridge " << b.u << "-" << b.v << " trial " << trial;
    }
    // And non-bridges do not split.
    const auto bs = bridges(g);
    auto is_bridge = [&bs](const edge& e) {
      return std::find(bs.begin(), bs.end(), e) != bs.end();
    };
    for (const edge& e : g.edges()) {
      if (is_bridge(e)) continue;
      EXPECT_EQ(connected_components(without_edge(g, e)).count, base);
    }
  }
}

TEST(Robustness, MstIsMaximallyFragile) {
  // Every MST edge is a bridge; every internal MST node is a cut.
  const auto pts = geom::uniform_points(60, geom::bbox::rect(1000, 1000), 5);
  const auto mst = baselines::euclidean_mst(pts, 500.0);
  EXPECT_EQ(bridges(mst).size(), mst.num_edges());
}

}  // namespace
}  // namespace cbtc::graph
