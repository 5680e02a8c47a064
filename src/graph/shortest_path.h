// Weighted shortest paths (Dijkstra) with pluggable edge costs.
//
// Used to measure *power stretch*: the paper's competitiveness
// discussion compares the power of the most power-efficient route in
// G_alpha against the one in G_R, with per-hop cost p(d) = d^n.
#pragma once

#include <functional>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"

namespace cbtc::graph {

/// Cost of traversing edge {u, v}; must be non-negative and free of
/// side effects (Dijkstra skips arcs that cannot relax, so the number
/// of calls is not part of the contract).
using edge_cost_fn = std::function<double(node_id, node_id)>;

/// Dijkstra from `from`. Unreachable nodes get +infinity.
[[nodiscard]] std::vector<double> dijkstra(const undirected_graph& g, node_id from,
                                           const edge_cost_fn& cost);

/// Shortest-path tree rooted at the Dijkstra source: `parent[u]` is the
/// next hop from `u` toward the root (invalid_node for the root itself
/// and for unreachable nodes, which keep dist = +infinity).
struct shortest_path_tree {
  std::vector<double> dist;
  std::vector<node_id> parent;
};

/// Dijkstra from `from` with parent pointers. Relaxations use strict
/// `<` improvement and the heap orders ties by (distance, node id), so
/// the tree is deterministic for a given graph and cost function. The
/// cost callback is invoked as cost(settled, neighbor), and never for a
/// neighbor already settled.
[[nodiscard]] shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                               const edge_cost_fn& cost);

/// Edge cost equal to Euclidean length (hop-length metric).
[[nodiscard]] edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions);

/// Edge cost equal to transmission power d^exponent (energy metric).
[[nodiscard]] edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent);

}  // namespace cbtc::graph
