#include <gtest/gtest.h>

#include "graph/digraph.h"
#include "graph/graph.h"
#include "graph/union_find.h"
#include "graph_fixtures.h"

namespace cbtc::graph {
namespace {

// ----------------------------------------------------- undirected_graph

TEST(UndirectedGraph, EmptyGraph) {
  const undirected_graph g(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_EQ(g.degree(0), 0u);
}

TEST(UndirectedGraph, FromEdgesSymmetric) {
  const undirected_graph g = make_graph(3, {{0, 2}});
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(2), 1u);
  EXPECT_EQ(g.degree(1), 0u);
}

TEST(UndirectedGraph, DuplicateAndSelfLoopIgnored) {
  const undirected_graph g = make_graph(3, {{0, 1}, {0, 1}, {1, 0}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g, make_graph(3, {{0, 1}}));
}

TEST(UndirectedGraph, NeighborsSorted) {
  const undirected_graph g = make_graph(5, {{2, 4}, {2, 0}, {2, 3}});
  const auto n = g.neighbors(2);
  ASSERT_EQ(n.size(), 3u);
  EXPECT_EQ(n[0], 0u);
  EXPECT_EQ(n[1], 3u);
  EXPECT_EQ(n[2], 4u);
}

TEST(UndirectedGraph, EdgesCanonical) {
  const undirected_graph g = make_graph(4, {{3, 1}, {0, 2}});
  const auto es = g.edges();
  ASSERT_EQ(es.size(), 2u);
  EXPECT_EQ(es[0], (edge{0, 2}));
  EXPECT_EQ(es[1], (edge{1, 3}));
}

TEST(UndirectedGraph, HasEdgeOutOfRange) {
  const undirected_graph g(2);
  EXPECT_FALSE(g.has_edge(0, 7));
  EXPECT_FALSE(g.has_edge(9, 0));
}

TEST(UndirectedGraph, Equality) {
  const undirected_graph a = make_graph(3, {{0, 1}});
  EXPECT_EQ(a, make_graph(3, {{1, 0}}));
  EXPECT_NE(a, make_graph(3, {{0, 1}, {1, 2}}));
  EXPECT_NE(a, make_graph(4, {{0, 1}}));
  // One representation per graph: the default graph is the empty one.
  EXPECT_EQ(undirected_graph(), undirected_graph(0));
  EXPECT_EQ(undirected_graph(3), make_graph(3, {}));
}

TEST(UndirectedGraph, InducedIsolatesMaskedOutNodes) {
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  const undirected_graph h = g.induced({true, true, false, true});
  EXPECT_EQ(h, make_graph(4, {{0, 1}, {0, 3}}));
  EXPECT_EQ(h.degree(2), 0u);
  // A short mask masks out the nodes past its end.
  EXPECT_EQ(g.induced({true, true}), make_graph(4, {{0, 1}}));
}

// ------------------------------------------------------------- digraph

TEST(Digraph, ArcsAreDirected) {
  const digraph d = make_digraph(3, {{0, 1}});
  EXPECT_TRUE(d.has_arc(0, 1));
  EXPECT_FALSE(d.has_arc(1, 0));
  EXPECT_EQ(d.num_arcs(), 1u);
  EXPECT_EQ(d.out_degree(0), 1u);
  EXPECT_EQ(d.out_degree(1), 0u);
}

TEST(Digraph, Equality) {
  EXPECT_EQ(make_digraph(3, {{0, 1}, {2, 1}}), make_digraph(3, {{2, 1}, {0, 1}}));
  EXPECT_NE(make_digraph(3, {{0, 1}}), make_digraph(3, {{1, 0}}));
  EXPECT_EQ(digraph(), digraph(0));
  EXPECT_EQ(digraph(2), make_digraph(2, {}));
}

TEST(Digraph, SymmetricClosureKeepsAnyDirection) {
  // Example 2.1's lesson: (v,u0) in N_alpha without (u0,v) still must
  // produce the undirected edge in E_alpha. 0 -> 1 is one-directional,
  // 1 <-> 2 bidirectional.
  const digraph d = make_digraph(3, {{0, 1}, {1, 2}, {2, 1}});
  const undirected_graph closure = d.symmetric_closure();
  EXPECT_TRUE(closure.has_edge(0, 1));
  EXPECT_TRUE(closure.has_edge(1, 2));
  EXPECT_EQ(closure.num_edges(), 2u);
}

TEST(Digraph, SymmetricCoreKeepsOnlyMutual) {
  // Section 3.2: E^-_alpha keeps only mutual arcs.
  const digraph d = make_digraph(3, {{0, 1}, {1, 2}, {2, 1}});
  const undirected_graph core = d.symmetric_core();
  EXPECT_FALSE(core.has_edge(0, 1));
  EXPECT_TRUE(core.has_edge(1, 2));
  EXPECT_EQ(core.num_edges(), 1u);
}

TEST(Digraph, CoreSubsetOfClosure) {
  const digraph d = make_digraph(6, {{0, 1}, {1, 0}, {2, 3}, {4, 5}, {5, 4}, {3, 5}});
  const auto closure = d.symmetric_closure();
  const auto core = d.symmetric_core();
  for (const edge& e : core.edges()) EXPECT_TRUE(closure.has_edge(e.u, e.v));
  EXPECT_LE(core.num_edges(), closure.num_edges());
}

// ---------------------------------------------------------- union_find

TEST(UnionFind, InitiallyDisjoint) {
  union_find uf(4);
  EXPECT_EQ(uf.num_sets(), 4u);
  EXPECT_FALSE(uf.same(0, 1));
  EXPECT_EQ(uf.size_of(2), 1u);
}

TEST(UnionFind, UniteMerges) {
  union_find uf(4);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.same(0, 1));
  EXPECT_FALSE(uf.unite(1, 0));  // already merged
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.size_of(0), 2u);
}

TEST(UnionFind, TransitiveMerging) {
  union_find uf(6);
  uf.unite(0, 1);
  uf.unite(2, 3);
  uf.unite(1, 2);
  EXPECT_TRUE(uf.same(0, 3));
  EXPECT_FALSE(uf.same(0, 4));
  EXPECT_EQ(uf.num_sets(), 3u);
  EXPECT_EQ(uf.size_of(3), 4u);
}

TEST(UnionFind, ChainOfUnions) {
  const std::size_t n = 1000;
  union_find uf(n);
  for (node_id i = 0; i + 1 < n; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.num_sets(), 1u);
  EXPECT_TRUE(uf.same(0, static_cast<node_id>(n - 1)));
  EXPECT_EQ(uf.size_of(500), n);
}

}  // namespace
}  // namespace cbtc::graph
