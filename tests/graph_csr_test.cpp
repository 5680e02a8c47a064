// CSR-vs-nested equivalence battery: the flat (offsets + neighbors)
// representation must be logically indistinguishable from nested
// adjacency — same edges, same neighbor spans, same iteration order —
// across round-trips, mutation (which converts back to nested), and
// the parallel constructions that now assemble CSR directly.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "algo/pairwise.h"
#include "geom/spatial_order.h"
#include "geom/vec2.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

undirected_graph random_graph(std::size_t n, double p, std::mt19937_64& rng) {
  undirected_graph g(n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      if (coin(rng) < p) g.add_edge(u, v);
    }
  }
  return g;
}

digraph random_digraph(std::size_t n, double p, std::mt19937_64& rng) {
  digraph d(n);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = 0; v < n; ++v) {
      if (u != v && coin(rng) < p) d.add_arc(u, v);
    }
  }
  return d;
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

TEST(CsrGraph, FlattenedRoundTripRandomGraphs) {
  std::mt19937_64 rng(20260808);
  std::uniform_real_distribution<double> density(0.0, 0.2);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 60);
    const undirected_graph g = random_graph(n, density(rng), rng);
    const undirected_graph flat = g.flattened();
    EXPECT_TRUE(flat.is_flat());
    EXPECT_FALSE(g.is_flat());
    expect_identical(g, flat);
    // And the round trip back through from_csr of a flat copy.
    expect_identical(flat, flat.flattened());
  }
}

TEST(CsrGraph, HasEdgeAndInducedMatchAcrossRepresentations) {
  std::mt19937_64 rng(7);
  const undirected_graph g = random_graph(40, 0.15, rng);
  const undirected_graph flat = g.flattened();
  for (node_id u = 0; u < 40; ++u) {
    for (node_id v = 0; v < 40; ++v) EXPECT_EQ(g.has_edge(u, v), flat.has_edge(u, v));
  }
  std::vector<bool> mask(40);
  for (std::size_t i = 0; i < mask.size(); ++i) mask[i] = rng() % 2 == 0;
  expect_identical(g.induced(mask), flat.induced(mask));
}

TEST(CsrGraph, MutationConvertsBackToNested) {
  std::mt19937_64 rng(99);
  undirected_graph nested = random_graph(30, 0.2, rng);
  undirected_graph flat = nested.flattened();
  // Apply the same random edit script to both representations.
  std::uniform_int_distribution<node_id> pick(0, 29);
  for (int i = 0; i < 200; ++i) {
    const node_id u = pick(rng);
    const node_id v = pick(rng);
    if (rng() % 2 == 0) {
      EXPECT_EQ(nested.add_edge(u, v), flat.add_edge(u, v));
    } else {
      EXPECT_EQ(nested.remove_edge(u, v), flat.remove_edge(u, v));
    }
  }
  EXPECT_FALSE(flat.is_flat());
  expect_identical(nested, flat);
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

TEST(CsrDigraph, FlattenedDigraphMatchesAndMutates) {
  std::mt19937_64 rng(31337);
  util::thread_pool pool(3);
  digraph d = random_digraph(50, 0.08, rng);
  std::vector<std::size_t> off(51, 0);
  std::vector<node_id> arcs;
  for (node_id u = 0; u < 50; ++u) {
    const auto nb = d.out_neighbors(u);
    arcs.insert(arcs.end(), nb.begin(), nb.end());
    off[u + 1] = arcs.size();
  }
  digraph flat = digraph::from_csr(std::move(off), std::move(arcs));
  EXPECT_TRUE(flat.is_flat());
  EXPECT_TRUE(flat == d);
  expect_identical(d.symmetric_closure(pool), flat.symmetric_closure(pool));
  expect_identical(d.symmetric_core(pool), flat.symmetric_core(pool));
  // Mutation converts the CSR digraph back to nested lists.
  EXPECT_EQ(d.add_arc(0, 49), flat.add_arc(0, 49));
  EXPECT_FALSE(flat.is_flat());
  EXPECT_TRUE(flat == d);
}

TEST(CsrGraph, PairwiseRemovalIdenticalOnCsrInputAndAnyWidth) {
  std::mt19937_64 rng(424242);
  util::thread_pool four(4);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 60 + rng() % 60;
    const std::vector<geom::vec2> pos = random_positions(n, 900.0, rng);
    const undirected_graph g = build_max_power_graph(pos, 320.0);
    const algo::pairwise_options opts{.remove_all = trial % 2 == 0};
    const algo::pairwise_result one = algo::apply_pairwise_removal(g, pos, opts);
    const algo::pairwise_result wide = algo::apply_pairwise_removal(g, pos, opts, four);
    const algo::pairwise_result flat_in = algo::apply_pairwise_removal(g.flattened(), pos, opts, four);
    EXPECT_EQ(one.redundant_edges, wide.redundant_edges);
    EXPECT_EQ(one.removed_edges, wide.removed_edges);
    expect_identical(one.topology, wide.topology);
    expect_identical(one.topology, flat_in.topology);
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
