// Optimization 3: pairwise (redundant) edge removal (Section 3.3).
//
// Every edge gets an id eid(u,v) = (d(u,v), max(ID_u, ID_v),
// min(ID_u, ID_v)), compared lexicographically. Definition 3.5: if v
// and w are both neighbors of u, angle(v,u,w) < pi/3, and
// eid(u,v) > eid(u,w), then (u,v) is *redundant*. Theorem 3.6: all
// redundant edges can be removed simultaneously while preserving
// connectivity (for alpha <= 5*pi/6).
//
// The paper's practical variant keeps redundant edges that are not
// longer than the longest non-redundant edge (they cost no extra
// transmission power but help congestion); we implement both.
#pragma once

#include <compare>
#include <span>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::algo {

/// Lexicographic edge id from Section 3.3.
struct edge_id {
  double length{0.0};
  graph::node_id hi{0};
  graph::node_id lo{0};

  [[nodiscard]] static edge_id of(graph::node_id u, graph::node_id v,
                                  std::span<const geom::vec2> positions);

  [[nodiscard]] friend constexpr auto operator<=>(const edge_id& a, const edge_id& b) = default;
};

/// How the length gate of the practical optimization is interpreted.
/// The paper says: "we remove only redundant edges with length greater
/// than the longest non-redundant edges" — ambiguous between:
enum class pairwise_gate {
  /// Remove a redundant edge if it exceeds the longest non-redundant
  /// edge at *either* endpoint. Every node's radius then equals its
  /// longest non-redundant edge — the maximum power saving (and the
  /// variant whose Table 1 radii match the paper's almost exactly).
  either_endpoint,
  /// Remove only if it exceeds the longest non-redundant edge at
  /// *both* endpoints — keeps more edges (less congestion) but leaves
  /// some nodes transmitting farther than they need.
  both_endpoints,
};

struct pairwise_options {
  /// When false (the paper's "pairwise edge removal optimization"),
  /// only redundant edges longer than the longest non-redundant edge
  /// (per `gate`) are removed. When true, every redundant edge is
  /// removed (the full strength of Theorem 3.6).
  bool remove_all{false};
  pairwise_gate gate{pairwise_gate::either_endpoint};

  [[nodiscard]] bool operator==(const pairwise_options&) const = default;
};

struct pairwise_result {
  graph::undirected_graph topology;
  std::size_t redundant_edges{0};  // edges classified redundant
  std::size_t removed_edges{0};    // edges actually removed
};

/// Classifies redundancy on `g` (typically E_alpha or E^s/E^- after the
/// earlier optimizations) and removes edges per `opts`. The per-edge
/// classification (the hot part — one witness scan over both
/// endpoints' neighborhoods per edge) runs as a deterministic block
/// reduce on `pool`. Identical output for any pool width:
/// classifications land in per-edge slots and the redundancy count
/// folds in fixed block order.
[[nodiscard]] pairwise_result apply_pairwise_removal(
    const graph::undirected_graph& g, std::span<const geom::vec2> positions,
    const pairwise_options& opts = {}, const util::thread_pool& pool = util::thread_pool(1));

/// True if edge {u, v} is redundant in `g` per Definition 3.5 (checked
/// from both endpoints; the witness w may sit at either end).
[[nodiscard]] bool is_redundant_edge(const graph::undirected_graph& g,
                                     std::span<const geom::vec2> positions, graph::node_id u,
                                     graph::node_id v);

}  // namespace cbtc::algo
