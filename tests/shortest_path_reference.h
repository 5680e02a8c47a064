// Reference arc costs for the shortest-path tests: every arc priced by
// its own call of a cost callback, in CSR order, the long way.
// graph::power_arc_costs prices each edge once and mirrors it to its
// twin arc; the tests check it, and dijkstra over any arc-cost array,
// against these.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/shortest_path.h"

namespace cbtc::graph {

/// Edge cost equal to transmission power d^exponent (energy metric).
inline edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent) {
  return [&positions, exponent](node_id u, node_id v) {
    return std::pow(geom::distance(positions[u], positions[v]), exponent);
  };
}

/// g's arc-cost array (the layout of graph/shortest_path.h): entry
/// g.first_arc(u) + k is cost(u, g.neighbors(u)[k]).
inline std::vector<double> arc_costs(const undirected_graph& g, const edge_cost_fn& cost) {
  std::vector<double> out(2 * g.num_edges());
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    const std::span<const node_id> nbrs = g.neighbors(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) out[g.first_arc(u) + k] = cost(u, nbrs[k]);
  }
  return out;
}

}  // namespace cbtc::graph
