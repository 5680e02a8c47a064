// Topology metrics reported in the paper's evaluation (Section 5).
//
// Table 1 reports, per configuration, the *average node degree* and the
// *average radius*, where a node's radius is the distance to its
// farthest neighbor in the final topology (rad_u in the paper's
// notation). Stretch metrics support the competitiveness discussion.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Mean degree over all nodes (0 for an empty graph).
[[nodiscard]] double average_degree(const undirected_graph& g);

/// Distance from `u` to its farthest neighbor; `isolated_radius` for
/// nodes with no incident edge (a boundary node that found nobody still
/// broadcasts, so callers typically pass the max range R).
[[nodiscard]] double node_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                 node_id u, double isolated_radius = 0.0);

/// Mean of node_radius over all nodes.
[[nodiscard]] double average_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                    double isolated_radius = 0.0);

/// Largest node radius (the max transmission range anyone needs).
[[nodiscard]] double max_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                                double isolated_radius = 0.0);

/// Histogram of degrees: index d holds the number of nodes of degree d.
[[nodiscard]] std::vector<std::size_t> degree_histogram(const undirected_graph& g);

/// Mean total transmit power with per-node power p(radius) = radius^exponent.
[[nodiscard]] double average_power(const undirected_graph& g, std::span<const geom::vec2> positions,
                                   double exponent, double isolated_radius = 0.0);

struct stretch_stats {
  double mean{1.0};
  double max{1.0};
  std::size_t pairs{0};  // connected pairs measured
};

/// Power stretch of `sparse` w.r.t. `dense`: for sampled connected
/// pairs (s,t), the ratio of minimum-energy route costs (cost d^exponent
/// per hop).
///
/// Sources are every step-th node id from 0, step = floor(n / k) with
/// k = min(sample_sources, n). That is ceil(n / step) sources, between
/// k and 2k - 1 (the paper's 100-node Table 1 runs 9 for k = 8), each
/// running one Dijkstra per graph. Pass the node count (or more) for
/// the exact all-pairs statistic; 0 sources gives the default stats.
///
/// Each graph's costs d^exponent are evaluated once per edge, on `pool`
/// (graph::power_arc_costs), and every source's Dijkstra reads them. Each
/// source's two searches take one pool slot; the per-pair ratios then
/// fold serially in (source, target) order, so the result is bitwise
/// identical at every pool width.
[[nodiscard]] stretch_stats power_stretch(const undirected_graph& sparse,
                                          const undirected_graph& dense,
                                          const std::vector<geom::vec2>& positions, double exponent,
                                          std::size_t sample_sources = 32,
                                          const util::thread_pool& pool = util::thread_pool(1));

/// Hop stretch of `sparse` w.r.t. `dense` (BFS hop counts), with the
/// same sources and pool contract as power_stretch.
[[nodiscard]] stretch_stats hop_stretch(const undirected_graph& sparse,
                                        const undirected_graph& dense,
                                        std::size_t sample_sources = 32,
                                        const util::thread_pool& pool = util::thread_pool(1));

}  // namespace cbtc::graph
