// Undirected graph over dense node ids.
//
// Topologies produced by CBTC and its optimizations are undirected
// graphs (symmetric closures / symmetric cores of the neighbor
// relation N_alpha). A graph is immutable flat CSR: one `offsets`
// array (n + 1 entries) plus one `neighbors` array holding every
// node's sorted adjacency list back to back, so neighbor scans and set
// operations are deterministic and cache-dense. Each graph has exactly
// one representation (a default-constructed graph is
// undirected_graph(0)), so equality is member-wise.
//
// Graphs are derived, never edited. There are two ways in:
//
//   * from_edges — a serial build from an edge list in any order, with
//     duplicates, reversed pairs and self-loops dropped (baselines,
//     reference constructions, tests);
//   * assemble — the pooled per-node build both graph types share: a
//     per-node degree pass, the offsets' prefix sum, then a per-node
//     fill (closure / core merges, optimization passes, relabeling,
//     snapshots of the incrementally maintained dynamic state).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

/// An undirected edge with u < v canonically.
struct edge {
  node_id u{invalid_node};
  node_id v{invalid_node};

  [[nodiscard]] friend constexpr bool operator==(const edge&, const edge&) = default;
};

class undirected_graph {
 public:
  undirected_graph() : undirected_graph(0) {}
  /// `num_nodes` isolated nodes.
  explicit undirected_graph(std::size_t num_nodes) : offsets_(num_nodes + 1, 0) {}

  [[nodiscard]] std::size_t num_nodes() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_edges() const { return flat_.size() / 2; }

  [[nodiscard]] bool has_edge(node_id u, node_id v) const;
  [[nodiscard]] std::span<const node_id> neighbors(node_id u) const {
    return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  [[nodiscard]] std::size_t degree(node_id u) const { return offsets_[u + 1] - offsets_[u]; }
  /// Position of u's list in the concatenated neighbor array: arc
  /// first_arc(u) + k is u -> neighbors(u)[k]. Per-arc data (such as
  /// graph::power_arc_costs) aligns with this numbering.
  [[nodiscard]] std::size_t first_arc(node_id u) const { return offsets_[u]; }

  /// All edges with u < v, sorted lexicographically.
  [[nodiscard]] std::vector<edge> edges() const;

  [[nodiscard]] friend bool operator==(const undirected_graph&,
                                       const undirected_graph&) = default;

  /// Subgraph induced by the nodes with mask[u] == true (same node-id
  /// space; masked-out nodes become isolated). Used for survivor
  /// topologies after crash failures.
  [[nodiscard]] undirected_graph induced(const std::vector<bool>& mask) const;

  /// The graph on nodes [0, num_nodes) with the given edges, in any
  /// order: each pair is canonicalized, duplicates and reversed
  /// duplicates collapse, and self-loops are dropped.
  [[nodiscard]] static undirected_graph from_edges(std::size_t num_nodes,
                                                   std::vector<edge> edges);

  /// Adopts a flat CSR adjacency wholesale: `offsets` has num_nodes + 1
  /// entries with offsets[0] == 0 and offsets.back() == neighbors.size();
  /// node u's neighbor list is neighbors[offsets[u]..offsets[u+1]).
  /// Contract (asserted in debug builds): every list sorted ascending,
  /// no self-loops or duplicates, and the relation is symmetric (v in
  /// u's list iff u in v's).
  [[nodiscard]] static undirected_graph from_csr(std::vector<std::size_t> offsets,
                                                 std::vector<node_id> neighbors);

 private:
  std::vector<std::size_t> offsets_;  // num_nodes + 1 entries
  std::vector<node_id> flat_;         // concatenated sorted lists
};

/// The per-node CSR build behind every derived graph of either type:
/// node u's list has degree(u) entries, and fill(u, out) writes them,
/// sorted ascending, into `out` (a span of exactly that length). Both
/// passes run per node on `pool` with one slot per node, and the
/// offsets' exclusive prefix sum runs between them, so the result is
/// identical for any pool width. The lists must meet Graph::from_csr's
/// contract.
template <class Graph, class Degree, class Fill>
[[nodiscard]] Graph assemble(std::size_t n, const Degree& degree, const Fill& fill,
                             const util::thread_pool& pool = util::thread_pool(1)) {
  std::vector<std::size_t> offsets(n + 1, 0);
  pool.parallel_for(n, [&](std::size_t u) { offsets[u + 1] = degree(static_cast<node_id>(u)); });
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
  std::vector<node_id> flat(offsets[n]);
  pool.parallel_for(n, [&](std::size_t u) {
    fill(static_cast<node_id>(u),
         std::span<node_id>(flat.data() + offsets[u], offsets[u + 1] - offsets[u]));
  });
  return Graph::from_csr(std::move(offsets), std::move(flat));
}

}  // namespace cbtc::graph
