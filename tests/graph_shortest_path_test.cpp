// Edge cases of graph::dijkstra_tree left untested by the metrics
// suite: unreachable sinks, zero-weight and duplicate edges, trivial
// graphs, and tie-break determinism (including graphs assembled at
// different pool widths). Plus bitwise equality of the kernel, through
// both dijkstra_tree's cost callback and dijkstra's arc-cost array,
// with a plain lazy-deletion loop on random graphs full of ties, and
// with a copy that keeps the settled skip dijkstra leaves out; the
// arc-cost array's layout, and the per-edge power costs against the
// reference arc_costs of power_cost (shortest_path_reference.h).
#include "graph/shortest_path.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph_fixtures.h"
#include "shortest_path_reference.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

using geom::vec2;

const edge_cost_fn unit_cost = [](node_id, node_id) { return 1.0; };

TEST(DijkstraTree, UnreachableSinkKeepsInfinityAndNoParent) {
  // {0,1} connected, {2,3} connected, no bridge.
  const undirected_graph g = make_graph(4, {{0, 1}, {2, 3}});
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
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const edge_cost_fn zero = [](node_id, node_id) { return 0.0; };
  const shortest_path_tree a = dijkstra_tree(g, 0, zero);
  for (const double d : a.dist) EXPECT_EQ(d, 0.0);
  EXPECT_EQ(a.parent[0], invalid_node);
  // Identical on every rerun (pure function of graph + cost).
  const shortest_path_tree b = dijkstra_tree(g, 0, zero);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.parent, b.parent);
}

TEST(DijkstraTree, DuplicateEdgesDoNotSkewDistances) {
  // from_edges collapses duplicates (and drops self-loops), so listing
  // the same edge over and over leaves one adjacency entry and one
  // relaxation per hop.
  std::vector<edge> edges;
  for (int i = 0; i < 5; ++i) edges.insert(edges.end(), {{0, 1}, {1, 0}, {1, 2}, {1, 1}});
  const undirected_graph g = make_graph(3, std::move(edges));
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
  const undirected_graph g = make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
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

TEST(DijkstraTree, PricesAtMostOneArcPerEdge) {
  // The callback is never invoked for a neighbor already settled: of
  // an edge's two arcs, the one out of the endpoint settled second
  // points back into a settled node, so at most one arc per edge is
  // priced (a search that priced every arc would make 2|E| calls).
  std::mt19937_64 rng(3301);
  const undirected_graph g = random_graph(80, 0.2, rng);
  ASSERT_GT(g.num_edges(), 0u);
  std::vector<bool> settled(g.num_nodes(), false);
  std::size_t calls = 0;
  const edge_cost_fn cost = [&](node_id u, node_id v) {
    settled[u] = true;
    EXPECT_FALSE(settled[v]) << u << " -> " << v;
    ++calls;
    return 1.0 + static_cast<double>((u + v) % 3);
  };
  (void)dijkstra_tree(g, 0, cost);
  EXPECT_LE(calls, g.num_edges());
}

/// Lazy-deletion Dijkstra with parent pointers that evaluates every
/// arc's cost, arcs back into settled nodes included: the oracle the
/// library kernel (indexed frontier) must match bit for bit.
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
    std::vector<edge> edges(rng() % (4 * n));
    for (edge& e : edges) e = {static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n)};
    const undirected_graph g = make_graph(n, std::move(edges));
    std::vector<vec2> lattice(n);
    for (vec2& p : lattice) {
      p = {100.0 * static_cast<double>(rng() % 6), 100.0 * static_cast<double>(rng() % 6)};
    }
    const std::uint64_t salt = rng();
    const edge_cost_fn quantized = [salt](node_id u, node_id v) {
      return 0.1 * static_cast<double>(mix(salt ^ (std::uint64_t{u} << 32 | v)) % 4);
    };
    for (const edge_cost_fn& cost : {quantized, power_cost(lattice, 2.0), unit_cost}) {
      const std::vector<double> costs = arc_costs(g, cost);
      for (int pick = 0; pick < 3; ++pick) {
        const auto from = static_cast<node_id>(rng() % n);
        const shortest_path_tree want = reference_tree(g, from, cost);
        const shortest_path_tree got = dijkstra_tree(g, from, cost);
        SCOPED_TRACE(::testing::Message() << "round " << round << " from " << from);
        ASSERT_EQ(got.dist, want.dist);  // element-wise bitwise doubles
        ASSERT_EQ(got.parent, want.parent);
        ASSERT_EQ(dijkstra(g, from, costs), want.dist);
      }
    }
  }
}

/// A cost that differs per direction: cost(u, v) != cost(v, u).
const edge_cost_fn asymmetric_cost = [](node_id u, node_id v) {
  return 1000.0 * static_cast<double>(u) + static_cast<double>(v);
};

TEST(ArcCosts, EntryFollowsTheCsrNeighborOrder) {
  // Entry first_arc(u) + k is the arc u -> neighbors(u)[k], in that
  // direction: the asymmetric cost tells u -> v from v -> u.
  std::mt19937_64 rng(1907);
  const undirected_graph g = random_graph(60, 0.1, rng);
  const std::vector<double> costs = arc_costs(g, asymmetric_cost);
  ASSERT_EQ(costs.size(), 2 * g.num_edges());
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    const std::span<const node_id> nbrs = g.neighbors(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      EXPECT_EQ(costs[g.first_arc(u) + k], asymmetric_cost(u, nbrs[k])) << u << " " << k;
    }
  }
}

TEST(ArcCosts, EmptyGraphAndIsolatedNodes) {
  EXPECT_TRUE(arc_costs(undirected_graph(0), unit_cost).empty());
  // Nodes 0 and 3 are isolated: they own no arcs, and a search from
  // either reaches only itself.
  const undirected_graph g = make_graph(4, {{1, 2}});
  const std::vector<double> costs = arc_costs(g, asymmetric_cost);
  EXPECT_EQ(costs, (std::vector<double>{1002.0, 2001.0}));
  const std::vector<double> from_isolated = dijkstra(g, 0, costs);
  EXPECT_EQ(from_isolated[0], 0.0);
  for (node_id v = 1; v < 4; ++v) EXPECT_TRUE(std::isinf(from_isolated[v])) << v;
  const std::vector<double> from_pair = dijkstra(g, 2, costs);
  EXPECT_EQ(from_pair[1], 2001.0);
  EXPECT_TRUE(std::isinf(from_pair[3]));
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(dijkstra(undirected_graph(3), 1, {}), (std::vector<double>{inf, 0.0, inf}));
}

/// Dijkstra over an arc-cost array with the settled skip that dijkstra
/// leaves out: an arc into a node already at distance <= d is never
/// priced. For non-negative costs d + c >= d, so the strict test
/// rejects such arcs anyway and no bit may change.
std::vector<double> skip_settled_dijkstra(const undirected_graph& g, node_id from,
                                          std::span<const double> arc_cost) {
  std::vector<double> dist(g.num_nodes(), std::numeric_limits<double>::infinity());
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    const std::span<const node_id> nbrs = g.neighbors(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const node_id v = nbrs[k];
      if (dist[v] <= d) continue;
      const double nd = d + arc_cost[g.first_arc(u) + k];
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

std::vector<std::uint64_t> bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

TEST(Dijkstra, ArrayCostsMatchTheSettledSkipLoopBitwise) {
  // Zero-cost arcs, three-valued asymmetric costs and coincident
  // lattice nodes make ties and zero-distance plateaus common; every
  // source of every graph is searched.
  std::mt19937_64 rng(2411);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 2 + rng() % 120;
    std::vector<edge> edges(rng() % (5 * n));
    for (edge& e : edges) e = {static_cast<node_id>(rng() % n), static_cast<node_id>(rng() % n)};
    const undirected_graph g = make_graph(n, std::move(edges));
    std::vector<vec2> lattice(n);
    for (vec2& p : lattice) {
      p = {100.0 * static_cast<double>(rng() % 6), 100.0 * static_cast<double>(rng() % 6)};
    }
    const std::uint64_t salt = rng();
    const edge_cost_fn quantized = [salt](node_id u, node_id v) {
      return 0.1 * static_cast<double>(mix(salt ^ (std::uint64_t{u} << 32 | v)) % 4);
    };
    for (const edge_cost_fn& cost : {quantized, power_cost(lattice, 2.0), power_cost(lattice, 3.5)}) {
      const std::vector<double> costs = arc_costs(g, cost);
      for (node_id from = 0; from < n; ++from) {
        ASSERT_EQ(bits(dijkstra(g, from, costs)), bits(skip_settled_dijkstra(g, from, costs)))
            << "round " << round << " from " << from;
      }
    }
  }
}

TEST(PowerArcCosts, MatchArcCostsOfPowerCostBitForBit) {
  // Each edge priced once and mirrored to its twin arc must equal
  // pricing both arcs, for uniform, coincident and negative
  // coordinates, several exponents, and any pool width.
  std::vector<std::vector<vec2>> fields;
  fields.push_back(geom::uniform_points(400, geom::bbox::rect(3000.0, 3000.0), 53));
  std::vector<vec2> stacked = geom::uniform_points(200, geom::bbox::rect(1200.0, 1200.0), 59);
  for (std::size_t i = 3; i < stacked.size(); i += 3) stacked[i] = stacked[i - 1];
  fields.push_back(stacked);
  std::vector<vec2> shifted = geom::uniform_points(200, geom::bbox::rect(1200.0, 1200.0), 61);
  for (vec2& p : shifted) p = {p.x - 600.123, p.y * -1.7};
  fields.push_back(shifted);
  for (const std::vector<vec2>& pts : fields) {
    const undirected_graph g = build_max_power_graph(pts, 400.0);
    ASSERT_GT(g.num_edges(), 0u);
    for (const double exponent : {2.0, 3.0, 2.5, 4.0}) {
      const std::vector<double> want = arc_costs(g, power_cost(pts, exponent));
      for (const unsigned width : {1u, 4u}) {
        util::thread_pool pool(width);
        EXPECT_EQ(bits(power_arc_costs(g, pts, exponent, pool)), bits(want))
            << "exponent " << exponent << " width " << width;
      }
    }
  }
  EXPECT_TRUE(power_arc_costs(undirected_graph(3), {{0, 0}, {1, 1}, {2, 2}}, 2.0).empty());
}

}  // namespace
}  // namespace cbtc::graph
