// Edge cases of graph::dijkstra_tree left untested by the metrics
// suite: unreachable sinks, zero-weight and duplicate edges, trivial
// graphs, and tie-break determinism (including graphs assembled at
// different pool widths). Plus bitwise equality of the kernel with a
// plain lazy-deletion loop on random graphs full of ties.
#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

using geom::vec2;

const edge_cost_fn unit_cost = [](node_id, node_id) { return 1.0; };

TEST(DijkstraTree, UnreachableSinkKeepsInfinityAndNoParent) {
  undirected_graph g(4);  // {0,1} connected, {2,3} connected, no bridge
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[0], 0.0);
  EXPECT_EQ(t.dist[1], 1.0);
  EXPECT_TRUE(std::isinf(t.dist[2]));
  EXPECT_TRUE(std::isinf(t.dist[3]));
  EXPECT_EQ(t.parent[0], invalid_node);
  EXPECT_EQ(t.parent[1], 0u);
  EXPECT_EQ(t.parent[2], invalid_node);
  EXPECT_EQ(t.parent[3], invalid_node);
}

TEST(DijkstraTree, ZeroWeightEdgesSettleDeterministically) {
  // A 4-cycle where every edge costs 0: all nodes at distance 0, and
  // the (distance, node id) heap order makes the parents reproducible
  // — each node's parent is its smallest-id zero-distance neighbor
  // settled first.
  undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 0);
  const edge_cost_fn zero = [](node_id, node_id) { return 0.0; };
  const shortest_path_tree a = dijkstra_tree(g, 0, zero);
  for (const double d : a.dist) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(a.parent[0], invalid_node);
  // Identical on every rerun (pure function of graph + cost).
  const shortest_path_tree b = dijkstra_tree(g, 0, zero);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(DijkstraTree, DuplicateEdgeInsertionsDoNotSkewDistances) {
  // add_edge ignores duplicates (and self-loops), so hammering the
  // same edge leaves one adjacency entry and one relaxation per hop.
  undirected_graph g(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(g.add_edge(0, 1), i == 0);
    EXPECT_EQ(g.add_edge(1, 0), false);
    EXPECT_EQ(g.add_edge(1, 2), i == 0);
    EXPECT_FALSE(g.add_edge(1, 1));
  }
  EXPECT_EQ(g.num_edges(), 2u);
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[2], 2.0);
  EXPECT_EQ(t.parent[2], 1u);
}

TEST(DijkstraTree, SingleNodeGraph) {
  const undirected_graph g(1);
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  ASSERT_EQ(t.dist.size(), 1u);
  EXPECT_EQ(t.dist[0], 0.0);
  EXPECT_EQ(t.parent[0], invalid_node);
}

TEST(DijkstraTree, EqualCostTiesBreakTowardSmallerIds) {
  // Two equal-cost routes to node 3: via 1 and via 2. The heap's
  // (distance, id) order settles 1 first, so 3's parent must be 1.
  undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const shortest_path_tree t = dijkstra_tree(g, 0, unit_cost);
  EXPECT_EQ(t.dist[3], 2.0);
  EXPECT_EQ(t.parent[3], 1u);
}

TEST(DijkstraTree, IdenticalOnGraphsBuiltAtAnyPoolWidth) {
  // The trees must agree bit for bit whether the input CSR was
  // assembled serially or by a wide pool — the graphs are equal, and
  // dijkstra_tree is a pure function of the adjacency.
  const std::vector<vec2> positions =
      geom::uniform_points(150, geom::bbox::rect(1500.0, 1500.0), 11);
  util::thread_pool one(1);
  util::thread_pool wide(8);
  const undirected_graph a = build_max_power_graph(positions, 500.0, one);
  const undirected_graph b = build_max_power_graph(positions, 500.0, wide);
  ASSERT_TRUE(a == b);
  const edge_cost_fn cost = power_cost(positions, 2.0);
  const shortest_path_tree ta = dijkstra_tree(a, 7, cost);
  const shortest_path_tree tb = dijkstra_tree(b, 7, cost);
  EXPECT_EQ(ta.dist, tb.dist);
  EXPECT_EQ(ta.parent, tb.parent);
}

/// Lazy-deletion Dijkstra with parent pointers that evaluates every
/// arc's cost, arcs back into settled nodes included: the oracle the
/// library kernel (settled skip, indexed frontier) must match bit for
/// bit.
shortest_path_tree reference_tree(const undirected_graph& g, node_id from,
                                  const edge_cost_fn& cost) {
  shortest_path_tree tree;
  tree.dist.assign(g.num_nodes(), std::numeric_limits<double>::infinity());
  tree.parent.assign(g.num_nodes(), invalid_node);
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  tree.dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > tree.dist[u]) continue;
    for (node_id v : g.neighbors(u)) {
      const double nd = d + cost(u, v);
      if (nd < tree.dist[v]) {
        tree.dist[v] = nd;
        tree.parent[v] = u;
        heap.push({nd, v});
      }
    }
  }
  return tree;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(DijkstraTree, MatchesLazyDeletionLoopBitwise) {
  // Random graphs whose costs make ties and zero-distance plateaus
  // common: a quarter of all arcs cost 0, the rest one of three values
  // (one-tenth steps, so equal-cost routes round differently), drawn
  // per ordered pair, so cost(u, v) != cost(v, u) too. Positions on a
  // coarse lattice add coincident nodes (zero power cost) and many
  // equal edge lengths.
  std::mt19937_64 rng(1301);
  for (int round = 0; round < 80; ++round) {
    const std::size_t n = 2 + rng() % 150;
    undirected_graph g(n);
    const std::size_t arcs = rng() % (4 * n);
    for (std::size_t i = 0; i < arcs; ++i) {
      (void)g.add_edge(static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n));
    }
    std::vector<vec2> lattice(n);
    for (vec2& p : lattice) {
      p = {100.0 * static_cast<double>(rng() % 6), 100.0 * static_cast<double>(rng() % 6)};
    }
    const std::uint64_t salt = rng();
    const edge_cost_fn quantized = [salt](node_id u, node_id v) {
      return 0.1 * static_cast<double>(mix(salt ^ (std::uint64_t{u} << 32 | v)) % 4);
    };
    for (const edge_cost_fn& cost : {quantized, power_cost(lattice, 2.0), unit_cost}) {
      for (int pick = 0; pick < 3; ++pick) {
        const auto from = static_cast<node_id>(rng() % n);
        const shortest_path_tree want = reference_tree(g, from, cost);
        const shortest_path_tree got = dijkstra_tree(g, from, cost);
        SCOPED_TRACE(::testing::Message() << "round " << round << " from " << from);
        ASSERT_EQ(got.dist, want.dist);  // element-wise bitwise doubles
        ASSERT_EQ(got.parent, want.parent);
        ASSERT_EQ(dijkstra(g, from, cost), want.dist);
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::graph
