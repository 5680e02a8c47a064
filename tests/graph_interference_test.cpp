#include "graph/interference.h"

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph_fixtures.h"

namespace cbtc::graph {
namespace {

TEST(EdgeInterference, IsolatedPairIsZero) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}};
  const undirected_graph g = make_graph(2, {{0, 1}});
  EXPECT_EQ(edge_interference(g, pts, 0, 1), 0u);
}

TEST(EdgeInterference, CountsCoveredNodes) {
  // Edge 0-1 of length 100; node 2 inside u's disk, node 3 inside v's
  // disk, node 4 outside both.
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {-50, 0}, {150, 0}, {300, 0}};
  const undirected_graph g = make_graph(5, {{0, 1}});
  EXPECT_EQ(edge_interference(g, pts, 0, 1), 2u);
}

TEST(EdgeInterference, NodeInBothDisksCountedOnce) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {50, 10}};
  const undirected_graph g = make_graph(3, {{0, 1}});
  EXPECT_EQ(edge_interference(g, pts, 0, 1), 1u);
}

TEST(EdgeInterference, LongerEdgesInterfereMore) {
  // Same node cloud: a long edge covers at least as many nodes as a
  // short co-located one.
  const auto pts = geom::uniform_points(80, geom::bbox::rect(500, 500), 3);
  const undirected_graph g = make_graph(pts.size(), {{0, 1}});
  const std::size_t direct = edge_interference(g, pts, 0, 1);
  // A much shorter edge from node 0 to its nearest neighbor.
  node_id nearest = 1;
  double best = geom::distance(pts[0], pts[1]);
  for (node_id v = 2; v < pts.size(); ++v) {
    const double d = geom::distance(pts[0], pts[v]);
    if (d < best) {
      best = d;
      nearest = v;
    }
  }
  const std::size_t short_edge = edge_interference(g, pts, 0, nearest);
  EXPECT_LE(short_edge, direct + pts.size() / 10);  // sanity: no blow-up
}

TEST(TopologyInterference, EmptyGraph) {
  const interference_stats s = topology_interference(undirected_graph(3), {});
  EXPECT_EQ(s.edges, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(TopologyInterference, MeanAndMax) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {-50, 0}, {150, 0}};
  // {0, 1} covers 2 and 3; {0, 2}'s length-50 disks cover nobody else.
  const undirected_graph g = make_graph(4, {{0, 1}, {0, 2}});
  const interference_stats s = topology_interference(g, pts);
  EXPECT_EQ(s.edges, 2u);
  EXPECT_EQ(s.max, 2u);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
}

TEST(TopologyInterference, TopologyControlReducesInterference) {
  // The paper's Section 1 motivation, measured: the max-power graph
  // interferes far more than the MST on the same nodes.
  const auto pts = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 7);
  const auto gr = build_max_power_graph(pts, 500.0);
  const auto mst = baselines::euclidean_mst(pts, 500.0);
  const auto i_gr = topology_interference(gr, pts);
  const auto i_mst = topology_interference(mst, pts);
  EXPECT_GT(i_gr.mean, 2.0 * i_mst.mean);
  EXPECT_GE(i_gr.max, i_mst.max);
}

TEST(TopologyInterference, MatchesPerEdgeComputation) {
  const auto pts = geom::uniform_points(40, geom::bbox::rect(800, 800), 11);
  const auto gr = build_max_power_graph(pts, 300.0);
  const auto stats = topology_interference(gr, pts);
  double total = 0.0;
  std::size_t max_cov = 0;
  for (const edge& e : gr.edges()) {
    const std::size_t cov = edge_interference(gr, pts, e.u, e.v);
    total += static_cast<double>(cov);
    max_cov = std::max(max_cov, cov);
  }
  EXPECT_DOUBLE_EQ(stats.mean, total / static_cast<double>(gr.num_edges()));
  EXPECT_EQ(stats.max, max_cov);
}

}  // namespace
}  // namespace cbtc::graph
