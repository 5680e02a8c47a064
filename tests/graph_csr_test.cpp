// The CSR graph layer: from_edges against a set model, induced against
// the filtered edge set, assemble at any pool width, and the pooled
// constructions (closure / core, pairwise removal, G_R) identical at
// any width and to their references.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "algo/pairwise.h"
#include "geom/spatial_order.h"
#include "geom/vec2.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"
#include "graph/graph.h"
#include "graph_fixtures.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

digraph random_digraph(std::size_t n, double p, std::mt19937_64& rng) {
  std::vector<edge> arcs;
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = 0; v < n; ++v) {
      if (u != v && coin(rng) < p) arcs.push_back({u, v});
    }
  }
  return make_digraph(n, arcs);
}

std::vector<geom::vec2> random_positions(std::size_t n, double side, std::mt19937_64& rng) {
  std::uniform_real_distribution<double> coord(0.0, side);
  std::vector<geom::vec2> p(n);
  for (auto& q : p) q = {coord(rng), coord(rng)};
  return p;
}

void expect_identical(const undirected_graph& a, const undirected_graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(a == b);
  for (node_id u = 0; u < a.num_nodes(); ++u) {
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) EXPECT_EQ(na[i], nb[i]) << "node " << u;
  }
  EXPECT_EQ(a.edges(), b.edges());
}

/// A random edge list over n nodes, rich in duplicates, reversed
/// pairs and self-loops.
std::vector<edge> messy_edges(std::size_t n, std::mt19937_64& rng) {
  std::uniform_int_distribution<node_id> node(0, static_cast<node_id>(n - 1));
  std::vector<edge> edges(rng() % (3 * n + 1));
  for (edge& e : edges) e = {node(rng), node(rng)};
  // Repeat a prefix reversed, so duplicates come in both orientations.
  const std::size_t repeat = edges.size() / 3;
  for (std::size_t i = 0; i < repeat; ++i) edges.push_back({edges[i].v, edges[i].u});
  return edges;
}

/// The set model of an edge list: canonical pairs, no self-loops.
std::set<std::pair<node_id, node_id>> edge_set(const std::vector<edge>& edges) {
  std::set<std::pair<node_id, node_id>> out;
  for (const edge& e : edges) {
    if (e.u != e.v) out.insert({std::min(e.u, e.v), std::max(e.u, e.v)});
  }
  return out;
}

TEST(CsrGraph, FromEdgesMatchesSetModel) {
  std::mt19937_64 rng(20260808);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 40);
    const std::vector<edge> edges = messy_edges(n, rng);
    const std::set<std::pair<node_id, node_id>> model = edge_set(edges);
    const undirected_graph g = undirected_graph::from_edges(n, edges);
    ASSERT_EQ(g.num_nodes(), n);
    EXPECT_EQ(g.num_edges(), model.size());
    EXPECT_EQ(edge_set(g.edges()), model);
    for (node_id u = 0; u < n; ++u) {
      std::size_t degree = 0;
      for (node_id v = 0; v < n; ++v) {
        const bool in_model = model.contains({std::min(u, v), std::max(u, v)});
        EXPECT_EQ(g.has_edge(u, v), in_model) << u << "-" << v;
        degree += in_model ? 1 : 0;
      }
      EXPECT_EQ(g.degree(u), degree);
      const auto nb = g.neighbors(u);
      EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    }
    // Any order of the same list builds the same graph.
    std::vector<edge> shuffled = edges;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    expect_identical(g, undirected_graph::from_edges(n, shuffled));
  }
}

TEST(CsrGraph, InducedMatchesFilteredEdgeSet) {
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 50);
    const undirected_graph g = random_graph(n, 0.15, rng);
    std::vector<bool> mask(n);
    for (std::size_t i = 0; i < n; ++i) mask[i] = rng() % 3 != 0;
    std::vector<edge> kept;
    for (const edge& e : g.edges()) {
      if (mask[e.u] && mask[e.v]) kept.push_back(e);
    }
    const undirected_graph h = g.induced(mask);
    EXPECT_EQ(h.edges(), kept);
    expect_identical(h, make_graph(n, kept));
  }
}

TEST(CsrGraph, AssembleIdenticalAtAnyWidth) {
  std::mt19937_64 rng(99);
  const undirected_graph g = random_graph(3000, 0.004, rng);
  // Every node keeps its neighbors of the same parity: symmetric, and
  // uneven enough that per-node work differs across slots.
  const auto same_parity = [](node_id u) { return [u](node_id v) { return (u ^ v) % 2 == 0; }; };
  const auto build = [&](const util::thread_pool& pool) {
    return assemble<undirected_graph>(
        g.num_nodes(),
        [&](node_id u) {
          const auto nb = g.neighbors(u);
          return static_cast<std::size_t>(std::count_if(nb.begin(), nb.end(), same_parity(u)));
        },
        [&](node_id u, std::span<node_id> out) {
          const auto nb = g.neighbors(u);
          std::copy_if(nb.begin(), nb.end(), out.begin(), same_parity(u));
        },
        pool);
  };
  const undirected_graph one = build(util::thread_pool(1));
  std::vector<edge> model;
  for (const edge& e : g.edges()) {
    if ((e.u ^ e.v) % 2 == 0) model.push_back(e);
  }
  EXPECT_GT(model.size(), 0u);
  EXPECT_EQ(one.edges(), model);
  expect_identical(one, build(util::thread_pool(3)));
  expect_identical(one, build(util::thread_pool(4)));
}

TEST(CsrGraph, FromCsrEmptyAndIsolatedNodes) {
  const undirected_graph g =
      undirected_graph::from_csr(std::vector<std::size_t>(6, 0), {});
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.neighbors(3).empty());
  EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(CsrDigraph, ClosureAndCoreIdenticalAtAnyWidth) {
  std::mt19937_64 rng(20010601);
  util::thread_pool pool(4);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 80);
    const digraph d = random_digraph(n, 0.1, rng);
    const undirected_graph closure = d.symmetric_closure();
    const undirected_graph core = d.symmetric_core();
    expect_identical(closure, d.symmetric_closure(pool));
    expect_identical(core, d.symmetric_core(pool));
    // Reference semantics: closure = or, core = and.
    for (node_id u = 0; u < n; ++u) {
      for (node_id v = u + 1; v < n; ++v) {
        EXPECT_EQ(closure.has_edge(u, v), d.has_arc(u, v) || d.has_arc(v, u));
        EXPECT_EQ(core.has_edge(u, v), d.has_arc(u, v) && d.has_arc(v, u));
      }
    }
  }
}

TEST(CsrGraph, PairwiseRemovalIdenticalAtAnyWidth) {
  std::mt19937_64 rng(424242);
  util::thread_pool four(4);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 60 + rng() % 60;
    const std::vector<geom::vec2> pos = random_positions(n, 900.0, rng);
    const undirected_graph g = build_max_power_graph(pos, 320.0);
    const algo::pairwise_options opts{.remove_all = trial % 2 == 0};
    const algo::pairwise_result one = algo::apply_pairwise_removal(g, pos, opts);
    const algo::pairwise_result wide = algo::apply_pairwise_removal(g, pos, opts, four);
    EXPECT_EQ(one.redundant_edges, wide.redundant_edges);
    EXPECT_EQ(one.removed_edges, wide.removed_edges);
    expect_identical(one.topology, wide.topology);
  }
}

TEST(CsrGraph, PooledMaxPowerGraphMatchesBruteAtAnyWidth) {
  std::mt19937_64 rng(5150);
  util::thread_pool four(4);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 50 + rng() % 150;
    const std::vector<geom::vec2> pos = random_positions(n, 1200.0, rng);
    const undirected_graph brute = build_max_power_graph_brute(pos, 400.0);
    expect_identical(brute, build_max_power_graph(pos, 400.0));
    expect_identical(brute, build_max_power_graph(pos, 400.0, four));
    const radio::link_model shadowed(
        radio::power_model(2.0, 400.0),
        radio::propagation_model::lognormal_shadowing(4.0, 8.0, 77 + trial));
    const undirected_graph shadowed_brute = build_max_power_graph_brute(pos, shadowed);
    expect_identical(shadowed_brute, build_max_power_graph(pos, shadowed));
    expect_identical(shadowed_brute, build_max_power_graph(pos, shadowed, four));
  }
}

TEST(SpatialOrder, PermutationIsValidAndSpatiallyCoherent) {
  std::mt19937_64 rng(8);
  const std::vector<geom::vec2> pos = random_positions(500, 3000.0, rng);
  const std::vector<std::uint32_t> perm = geom::spatial_order(pos, 400.0);
  ASSERT_EQ(perm.size(), pos.size());
  std::vector<bool> seen(pos.size(), false);
  for (const std::uint32_t id : perm) {
    ASSERT_LT(id, pos.size());
    EXPECT_FALSE(seen[id]);
    seen[id] = true;
  }
  // Consecutive new ids should be far closer on average than random
  // pairs: a weak but robust locality assertion.
  double ordered = 0.0;
  double shuffled = 0.0;
  for (std::size_t k = 1; k < perm.size(); ++k) {
    ordered += geom::distance(pos[perm[k - 1]], pos[perm[k]]);
    shuffled += geom::distance(pos[k - 1], pos[k]);
  }
  EXPECT_LT(ordered, 0.5 * shuffled);
  // Degenerate cells fall back to the identity.
  const std::vector<std::uint32_t> identity = geom::spatial_order(pos, 0.0);
  for (std::size_t k = 0; k < identity.size(); ++k) EXPECT_EQ(identity[k], k);
}

}  // namespace
}  // namespace cbtc::graph
