// The max-power graph G_R and Euclidean edge helpers.
//
// G_R = (V, E) with E = {(u,v) : d(u,v) <= R} is the graph induced when
// every node transmits at maximum power (Section 1 of the paper). It is
// the connectivity baseline every topology-control output is compared
// against. Under a non-uniform propagation model the membership test
// generalizes to "the link closes at maximum power"; the link-model
// overloads below prune by the maximum feasible link length, then
// filter per link.
#pragma once

#include <span>
#include <vector>

#include "geom/spatial_grid.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// Builds G_R with a spatial grid (O(n * k) for bounded density) as
/// flat CSR adjacency: per-node count pass, exclusive prefix sum,
/// parallel fill — zero per-edge sorted insertion. Identical edge set
/// for any pool width.
[[nodiscard]] undirected_graph build_max_power_graph(
    std::span<const geom::vec2> positions, double max_range,
    const util::thread_pool& pool = util::thread_pool(1));

/// Gain-aware G_R: edge {u, v} iff the link closes at maximum power
/// under `link`. The per-link membership test runs once per unordered
/// pair. Delegates to the distance build when the propagation is
/// isotropic (bitwise-identical edge set).
[[nodiscard]] undirected_graph build_max_power_graph(
    std::span<const geom::vec2> positions, const radio::link_model& link,
    const util::thread_pool& pool = util::thread_pool(1));

/// Reference O(n^2) construction, used to cross-check the grid path.
/// Tests and bench_scaling share it; it is the one reference kept
/// beside the pooled build.
[[nodiscard]] undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                                           double max_range);

/// Reference O(n^2) construction of the gain-aware G_R.
[[nodiscard]] undirected_graph build_max_power_graph_brute(std::span<const geom::vec2> positions,
                                                           const radio::link_model& link);

/// Length of edge {u, v} under the given layout.
[[nodiscard]] double edge_length(std::span<const geom::vec2> positions, node_id u, node_id v);

}  // namespace cbtc::graph
