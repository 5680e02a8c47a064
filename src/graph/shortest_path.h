// Weighted shortest paths (Dijkstra) with pluggable edge costs.
//
// Used to measure *power stretch*: the paper's competitiveness
// discussion compares the power of the most power-efficient route in
// G_alpha against the one in G_R, with per-hop cost p(d) = d^n.
//
// Two ways to give the costs. A search that runs many times over one
// fixed cost (the stretch pass: every sampled source, on the same two
// graphs) prices each arc once into an arc-cost array (power_arc_costs
// for the energy metric) and hands it to dijkstra. A search whose
// costs change between calls (run_lifetime's residual-energy route
// weights) passes a cost callback to dijkstra_tree. Both run the same
// kernel, so the same costs give the same distances bit for bit.
//
// Arc-cost layout: an arc-cost array of g has one entry per arc,
// aligned with g's CSR neighbor array. Entry g.first_arc(u) + k is the
// cost of the arc u -> g.neighbors(u)[k]; each undirected edge {u, v}
// has two entries, one per direction, so costs may be asymmetric.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Cost of traversing edge {u, v}; must be non-negative and free of
/// side effects (Dijkstra skips arcs that cannot relax, so the number
/// of calls is not part of the contract).
using edge_cost_fn = std::function<double(node_id, node_id)>;

/// g's arc-cost array (see the layout above) for the energy metric:
/// the entry of arc u -> v is pow(distance(u, v), exponent). Each edge
/// is priced once: the arc u -> v (u < v) is priced and its twin v -> u
/// gets the same entry. The two coordinate differences are exact
/// negations of each other and hypot ignores signs, so d(u, v) and
/// d(v, u) are the same double. Filled per node on `pool`, each slot by
/// one writer, so the array is identical at every pool width.
[[nodiscard]] std::vector<double> power_arc_costs(
    const undirected_graph& g, const std::vector<geom::vec2>& positions, double exponent,
    const util::thread_pool& pool = util::thread_pool(1));

/// Dijkstra from `from` over g's arc-cost array `arc_cost` (one
/// non-negative entry per arc, in the layout above). Unreachable nodes
/// get +infinity. Equal, bit for bit, to dijkstra_tree(g, from,
/// cost).dist when entry g.first_arc(u) + k of arc_cost is cost(u,
/// g.neighbors(u)[k]).
[[nodiscard]] std::vector<double> dijkstra(const undirected_graph& g, node_id from,
                                           std::span<const double> arc_cost);

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

}  // namespace cbtc::graph
