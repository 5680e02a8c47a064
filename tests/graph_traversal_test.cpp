#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <vector>

#include "graph/euclidean.h"
#include "graph/graph.h"
#include "graph_fixtures.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

TEST(ConnectedComponents, SingletonNodes) {
  const component_labels c = connected_components(undirected_graph(4));
  EXPECT_EQ(c.count, 4u);
  EXPECT_FALSE(c.same_component(0, 1));
}

TEST(ConnectedComponents, PathIsOneComponent) {
  const component_labels c = connected_components(path_graph(10));
  EXPECT_EQ(c.count, 1u);
  EXPECT_TRUE(c.same_component(0, 9));
}

TEST(ConnectedComponents, TwoIslands) {
  const undirected_graph g = make_graph(6, {{0, 1}, {1, 2}, {3, 4}});
  const component_labels c = connected_components(g);
  EXPECT_EQ(c.count, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_TRUE(c.same_component(0, 2));
  EXPECT_TRUE(c.same_component(3, 4));
  EXPECT_FALSE(c.same_component(2, 3));
  EXPECT_FALSE(c.same_component(4, 5));
}

TEST(IsConnected, EmptyAndSingleton) {
  EXPECT_TRUE(is_connected(undirected_graph(0)));
  EXPECT_TRUE(is_connected(undirected_graph(1)));
  EXPECT_FALSE(is_connected(undirected_graph(2)));
}

TEST(Reachable, Basics) {
  const undirected_graph g = make_graph(4, {{0, 1}});
  EXPECT_TRUE(reachable(g, 0, 1));
  EXPECT_TRUE(reachable(g, 1, 0));
  EXPECT_FALSE(reachable(g, 0, 2));
  EXPECT_TRUE(reachable(g, 3, 3));
}

TEST(SameConnectivity, IdenticalPartitions) {
  const undirected_graph a = make_graph(4, {{0, 1}, {2, 3}});
  // Different edges, same partition.
  const undirected_graph b = make_graph(4, {{1, 0}, {3, 2}});
  EXPECT_TRUE(same_connectivity(a, b));
}

TEST(SameConnectivity, DifferentPartitionsSameCount) {
  // Both have 2 components but group nodes differently.
  const undirected_graph a = make_graph(4, {{0, 1}, {2, 3}});
  const undirected_graph b = make_graph(4, {{0, 2}, {1, 3}});
  EXPECT_FALSE(same_connectivity(a, b));
}

TEST(SameConnectivity, ExtraEdgeInsideComponentIsFine) {
  const undirected_graph a = make_graph(3, {{0, 1}, {1, 2}});
  const undirected_graph b = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});  // chord
  EXPECT_TRUE(same_connectivity(a, b));
}

TEST(SameConnectivity, SplitDetected) {
  const undirected_graph a = make_graph(3, {{0, 1}, {1, 2}});
  const undirected_graph b = make_graph(3, {{0, 1}});
  EXPECT_FALSE(same_connectivity(a, b));
}

TEST(SameConnectivity, NodeCountMismatch) {
  EXPECT_FALSE(same_connectivity(undirected_graph(2), undirected_graph(3)));
}

/// The pre-union-find implementation, kept verbatim as the reference:
/// BFS labels on both graphs, then a consistent label bijection.
bool same_connectivity_bfs(const undirected_graph& a, const undirected_graph& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  const component_labels ca = connected_components(a);
  const component_labels cb = connected_components(b);
  if (ca.count != cb.count) return false;
  std::vector<node_id> a_to_b(ca.count, invalid_node);
  std::vector<node_id> b_to_a(cb.count, invalid_node);
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    const node_id la = ca.label[u];
    const node_id lb = cb.label[u];
    if (a_to_b[la] == invalid_node) a_to_b[la] = lb;
    if (b_to_a[lb] == invalid_node) b_to_a[lb] = la;
    if (a_to_b[la] != lb || b_to_a[lb] != la) return false;
  }
  return true;
}

/// Adjacency view of a graph for component_forest / same_partition.
auto view_of(const undirected_graph& g) {
  return [&g](node_id u, auto&& emit) {
    for (const node_id v : g.neighbors(u)) emit(v);
  };
}

/// The forest-level comparison the dynamic engine runs, on forests
/// reused across calls.
bool same_partition_reusing(std::size_t n, const undirected_graph& a, const undirected_graph& b,
                            component_forest& fa, component_forest& fb) {
  fa.build(n, view_of(a));
  fb.build(n, view_of(b));
  return same_partition(fa, view_of(a), fb);
}

TEST(SameConnectivity, UnionFindAgreesWithBfsOnRandomGraphs) {
  std::mt19937_64 rng(20260729);
  util::thread_pool pool(4);
  component_forest fa;
  component_forest fb;
  std::uniform_int_distribution<std::size_t> size(1, 60);
  std::uniform_real_distribution<double> density(0.0, 0.12);
  std::size_t agreements_true = 0;
  std::size_t agreements_false = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = size(rng);
    const undirected_graph a = random_graph(n, density(rng), rng);
    // Mix of cases: an independent random graph, a copy with one edge
    // toggled, and an exact copy — all compared against the reference.
    undirected_graph b = trial % 3 == 0 ? random_graph(n, density(rng), rng) : a;
    if (trial % 3 == 1 && n >= 2) {
      std::uniform_int_distribution<node_id> node(0, static_cast<node_id>(n - 1));
      const node_id u = node(rng);
      const node_id v = node(rng);
      if (u != v) b = b.has_edge(u, v) ? without_edge(b, {u, v}) : with_edge(b, {u, v});
    }
    const bool expected = same_connectivity_bfs(a, b);
    EXPECT_EQ(expected, same_connectivity(a, b)) << "trial " << trial;
    EXPECT_EQ(expected, same_connectivity(a, b, pool)) << "trial " << trial;
    EXPECT_EQ(expected, same_partition_reusing(n, a, b, fa, fb)) << "trial " << trial;
    EXPECT_EQ(fb.sets, connected_components(b).count) << "trial " << trial;
    ++(expected ? agreements_true : agreements_false);
  }
  // The trial mix must exercise both verdicts for the comparison to
  // mean anything.
  EXPECT_GT(agreements_true, 0u);
  EXPECT_GT(agreements_false, 0u);
}

TEST(SameConnectivity, ForestsAreReusableAcrossDifferentSizes) {
  component_forest fa;
  component_forest fb;
  const undirected_graph big = path_graph(50);
  EXPECT_TRUE(same_partition_reusing(50, big, big, fa, fb));
  const undirected_graph small = path_graph(3);
  EXPECT_TRUE(same_partition_reusing(3, small, small, fa, fb));
  const undirected_graph split = without_edge(path_graph(3), {1, 2});
  EXPECT_FALSE(same_partition_reusing(3, small, split, fa, fb));
  EXPECT_EQ(fb.sets, 2u);
}

TEST(ComponentForest, LiveNodesConnectedCountsDownNodesAsSingletons) {
  // Nodes 3 and 4 are down (isolated); the live nodes {0, 1, 2} form one
  // component until the edge {1, 2} goes.
  component_forest f;
  const undirected_graph joined = make_graph(5, {{0, 1}, {1, 2}});
  f.build(5, view_of(joined));
  EXPECT_TRUE(f.live_nodes_connected(3));
  const undirected_graph split = make_graph(5, {{0, 1}});
  f.build(5, view_of(split));
  EXPECT_FALSE(f.live_nodes_connected(3));
  // Zero and one live nodes are trivially connected.
  f.build(5, view_of(undirected_graph(5)));
  EXPECT_TRUE(f.live_nodes_connected(0));
  EXPECT_TRUE(f.live_nodes_connected(1));
  EXPECT_FALSE(f.live_nodes_connected(2));
}

TEST(BfsDistances, PathGraph) {
  const auto d = bfs_distances(path_graph(5), 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(d[i], i);
}

TEST(BfsDistances, UnreachableIsMax) {
  const undirected_graph g = make_graph(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], std::numeric_limits<std::uint32_t>::max());
}

TEST(BfsPath, FindsShortestPath) {
  // 0-1-2-3 plus shortcut 0-2.
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  const auto p = bfs_path(g, 0, 3);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.front(), 0u);
  EXPECT_EQ(p[1], 2u);
  EXPECT_EQ(p.back(), 3u);
}

TEST(BfsPath, NoPathReturnsEmpty) {
  const undirected_graph g = make_graph(3, {{0, 1}});
  EXPECT_TRUE(bfs_path(g, 0, 2).empty());
}

TEST(BfsPath, TrivialSelfPath) {
  const auto p = bfs_path(path_graph(3), 1, 1);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p[0], 1u);
}

TEST(BfsPath, EdgesExistAlongPath) {
  std::mt19937_64 rng(13);
  std::vector<edge> edges;
  for (int i = 0; i < 120; ++i) {
    edges.push_back({static_cast<node_id>(rng() % 50), static_cast<node_id>(rng() % 50)});
  }
  const undirected_graph g = make_graph(50, std::move(edges));
  const auto p = bfs_path(g, 0, 42);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    EXPECT_TRUE(g.has_edge(p[i], p[i + 1]));
  }
}

// ------------------------------------------------ euclidean G_R builder

TEST(MaxPowerGraph, MatchesBruteForce) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> u(0.0, 1000.0);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<geom::vec2> pts;
    for (int i = 0; i < 150; ++i) pts.push_back({u(rng), u(rng)});
    const double R = 150.0 + 100.0 * trial;
    EXPECT_EQ(build_max_power_graph(pts, R), build_max_power_graph_brute(pts, R));
  }
}

TEST(MaxPowerGraph, EdgeIffWithinRange) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {250, 0}};
  const auto g = build_max_power_graph(pts, 150.0);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
}

TEST(MaxPowerGraph, ExactRangeBoundaryIncluded) {
  const std::vector<geom::vec2> pts{{0, 0}, {150, 0}};
  EXPECT_TRUE(build_max_power_graph(pts, 150.0).has_edge(0, 1));
}

TEST(MaxPowerGraph, EmptyAndDegenerate) {
  EXPECT_EQ(build_max_power_graph({}, 100.0).num_nodes(), 0u);
  const std::vector<geom::vec2> pts{{0, 0}, {1, 1}};
  EXPECT_EQ(build_max_power_graph(pts, 0.0).num_edges(), 0u);
}

TEST(EdgeLength, MatchesDistance) {
  const std::vector<geom::vec2> pts{{0, 0}, {3, 4}};
  EXPECT_DOUBLE_EQ(edge_length(pts, 0, 1), 5.0);
}

}  // namespace
}  // namespace cbtc::graph
