// The one pass skeleton of optimization 3 (Section 3.3), shared by the
// pairwise removal (algo/pairwise.h) and its gain-aware generalization
// (algo/gain_removal.h). The two differ only in the per-edge
// classifier (angle witness plus length, against link-power witness
// plus power) and in the gain-aware connectivity repair; the edge
// table, the per-node largest-needed metric, the gated drop reduce and
// the kept-edge assembly live here once.
#pragma once

#include <cstddef>
#include <functional>
#include <span>

#include "algo/pairwise.h"
#include "graph/graph.h"
#include "util/parallel.h"

namespace cbtc::algo::detail {

/// Classifies edge {u, v} (u < v), whose arcs u -> v and v -> u sit at
/// `uv` and `vu` of g's CSR neighbor array (entry g.first_arc(u) + k is
/// the arc u -> g.neighbors(u)[k]): sets `metric` to the edge's gate
/// metric (its length, or its required power) and returns whether the
/// edge is redundant. Called once per edge, from any pool thread.
using edge_classifier = std::function<bool(graph::node_id u, graph::node_id v, std::size_t uv,
                                           std::size_t vu, double& metric)>;

/// Sees the drop verdicts (one slot per edge of the lexicographic edge
/// table) before the kept edges are assembled, may clear some, and
/// returns how many it cleared. Called only when some edge is dropped.
using drop_repair = std::function<std::size_t(
    std::span<const graph::edge> edges, std::span<const double> metric,
    std::span<unsigned char> drop)>;

struct removal_outcome {
  graph::undirected_graph topology;
  std::size_t redundant_edges{0};  // edges classified redundant
  std::size_t removed_edges{0};    // edges dropped, net of repairs
  std::size_t restored_edges{0};   // drops the repair cleared
};

/// Classifies every edge of `g`, drops the redundant ones past the
/// gate (all of them when `remove_all`), runs `repair` (if any) and
/// assembles the kept edges. Identical output for any pool width:
/// verdicts land in per-edge slots and counts fold in block order.
[[nodiscard]] removal_outcome remove_redundant_edges(const graph::undirected_graph& g,
                                                     bool remove_all, pairwise_gate gate,
                                                     const edge_classifier& classify,
                                                     const drop_repair& repair,
                                                     const util::thread_pool& pool);

}  // namespace cbtc::algo::detail
