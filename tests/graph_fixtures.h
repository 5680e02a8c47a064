// Small graphs for the tests, built through the graph layer's own ways
// in (from_edges, assemble), so the library carries no test-only
// constructor.
#pragma once

#include <algorithm>
#include <cstddef>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "graph/graph.h"
#include "graph/traversal.h"

namespace cbtc::graph {

/// The graph on `n` nodes with the given edges, each pair in either
/// order (duplicates collapse, self-loops are dropped).
inline undirected_graph make_graph(std::size_t n, std::vector<edge> edges) {
  return undirected_graph::from_edges(n, std::move(edges));
}

/// The digraph on `n` nodes with the given arcs {u, v} = u -> v
/// (duplicates collapse, self-loops are dropped).
inline digraph make_digraph(std::size_t n, const std::vector<edge>& arcs) {
  std::vector<std::vector<node_id>> out(n);
  for (const edge& a : arcs) {
    if (a.u != a.v) out[a.u].push_back(a.v);
  }
  for (std::vector<node_id>& list : out) {
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
  }
  return assemble<digraph>(
      n, [&](node_id u) { return out[u].size(); },
      [&](node_id u, std::span<node_id> slot) {
        std::copy(out[u].begin(), out[u].end(), slot.begin());
      });
}

/// `g` plus the edge `e`.
inline undirected_graph with_edge(const undirected_graph& g, edge e) {
  std::vector<edge> edges = g.edges();
  edges.push_back(e);
  return make_graph(g.num_nodes(), std::move(edges));
}

/// `g` minus the edge `e` (either orientation; unchanged when absent).
inline undirected_graph without_edge(const undirected_graph& g, edge e) {
  std::vector<edge> edges = g.edges();
  std::erase(edges, edge{std::min(e.u, e.v), std::max(e.u, e.v)});
  return make_graph(g.num_nodes(), std::move(edges));
}

/// 0 - 1 - ... - (n - 1).
inline undirected_graph path_graph(std::size_t n) {
  std::vector<edge> edges;
  for (node_id i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1});
  return make_graph(n, std::move(edges));
}

/// The path plus the closing edge {n - 1, 0}.
inline undirected_graph cycle_graph(std::size_t n) {
  std::vector<edge> edges = path_graph(n).edges();
  if (n > 2) edges.push_back({static_cast<node_id>(n - 1), 0});
  return make_graph(n, std::move(edges));
}

/// G(n, p): every pair {u, v} is an edge independently with
/// probability `p`.
inline undirected_graph random_graph(std::size_t n, double p, std::mt19937_64& rng) {
  std::bernoulli_distribution coin(p);
  std::vector<edge> edges;
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      if (coin(rng)) edges.push_back({u, v});
    }
  }
  return make_graph(n, std::move(edges));
}

/// BFS reference for field connectivity: every node that `up` marks
/// lies in one component of `g` (trivially true for fewer than two).
inline bool live_nodes_connected_bfs(const undirected_graph& g, const std::vector<bool>& up) {
  const component_labels comps = connected_components(g);
  node_id first = invalid_node;
  for (node_id u = 0; u < up.size(); ++u) {
    if (!up[u]) continue;
    if (first == invalid_node) {
      first = u;
    } else if (!comps.same_component(u, first)) {
      return false;
    }
  }
  return true;
}

}  // namespace cbtc::graph
