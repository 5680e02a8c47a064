#include "algo/augment.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "graph/euclidean.h"
#include "graph/robustness.h"
#include "graph/traversal.h"

namespace cbtc::algo {

namespace {

/// Component labels of `g` with edge `e` removed.
graph::component_labels split_without(const graph::undirected_graph& g, const graph::edge& e) {
  std::vector<graph::edge> rest = g.edges();
  std::erase(rest, e);
  return graph::connected_components(
      graph::undirected_graph::from_edges(g.num_nodes(), std::move(rest)));
}

}  // namespace

augment_result augment_bridge_resilience(const graph::undirected_graph& topology,
                                         std::span<const geom::vec2> positions, double max_range) {
  augment_result res;
  res.topology = topology;
  std::vector<graph::edge> edges = topology.edges();
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, max_range);

  // Iterate until no avoidable bridge remains. Each added edge kills at
  // least one bridge, so this terminates in O(#bridges) rounds.
  for (;;) {
    const std::vector<graph::edge> current_bridges = graph::bridges(res.topology);
    bool fixed_any = false;
    std::size_t unavoidable = 0;

    for (const graph::edge& bridge : current_bridges) {
      // Recompute the split for each bridge against the *current*
      // topology (earlier fixes may have already covered this one).
      if (!res.topology.has_edge(bridge.u, bridge.v)) continue;
      const graph::component_labels sides = split_without(res.topology, bridge);
      if (sides.same_component(bridge.u, bridge.v)) continue;  // no longer a bridge

      // Shortest G_R edge (other than the bridge) crossing the cut.
      graph::edge best{graph::invalid_node, graph::invalid_node};
      double best_len = std::numeric_limits<double>::infinity();
      for (const graph::edge& cand : gr.edges()) {
        if (cand == bridge) continue;
        if (res.topology.has_edge(cand.u, cand.v)) continue;
        if (sides.same_component(cand.u, cand.v)) continue;
        const double len = graph::edge_length(positions, cand.u, cand.v);
        if (len < best_len) {
          best_len = len;
          best = cand;
        }
      }
      if (best.u == graph::invalid_node) {
        ++unavoidable;  // G_R itself has no bypass for this cut
        continue;
      }
      edges.push_back(best);
      res.topology = graph::undirected_graph::from_edges(topology.num_nodes(), edges);
      ++res.edges_added;
      fixed_any = true;
    }

    if (!fixed_any) {
      res.unavoidable_bridges = unavoidable;
      break;
    }
  }
  return res;
}

}  // namespace cbtc::algo
