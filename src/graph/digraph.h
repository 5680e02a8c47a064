// Directed graph over dense node ids.
//
// The raw CBTC neighbor relation N_alpha is *directed* (Example 2.1 of
// the paper shows it need not be symmetric). The paper derives two
// undirected topologies from it:
//   - E_alpha  = symmetric closure  (u,v) in N or (v,u) in N   (Section 2)
//   - E-_alpha = symmetric core     (u,v) in N and (v,u) in N  (Section 3.2)
//
// Like undirected_graph, a digraph is one immutable flat CSR
// out-adjacency, built through graph::assemble (or from_csr).
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

class digraph {
 public:
  digraph() : digraph(0) {}
  /// `num_nodes` nodes without arcs.
  explicit digraph(std::size_t num_nodes) : offsets_(num_nodes + 1, 0) {}

  [[nodiscard]] std::size_t num_nodes() const { return offsets_.size() - 1; }
  [[nodiscard]] std::size_t num_arcs() const { return flat_.size(); }

  [[nodiscard]] bool has_arc(node_id u, node_id v) const;

  [[nodiscard]] std::span<const node_id> out_neighbors(node_id u) const {
    return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }
  [[nodiscard]] std::size_t out_degree(node_id u) const { return offsets_[u + 1] - offsets_[u]; }

  /// Symmetric closure: undirected edge {u,v} iff u->v or v->u. The
  /// in-neighbor scatter is a two-pass count/fill with prefix-sum
  /// offsets, and the per-node merges are assembled in parallel slots.
  /// Identical output for any pool width.
  [[nodiscard]] undirected_graph symmetric_closure(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// Symmetric core: undirected edge {u,v} iff u->v and v->u, assembled
  /// per node like the closure.
  [[nodiscard]] undirected_graph symmetric_core(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  [[nodiscard]] friend bool operator==(const digraph&, const digraph&) = default;

  /// Adopts a flat CSR out-adjacency wholesale (layout as in
  /// undirected_graph::from_csr). Contract (asserted in debug builds):
  /// each list sorted ascending, no duplicates or self-loops.
  [[nodiscard]] static digraph from_csr(std::vector<std::size_t> offsets,
                                        std::vector<node_id> arcs);

 private:
  std::vector<std::size_t> offsets_;  // num_nodes + 1 entries
  std::vector<node_id> flat_;         // concatenated sorted out-lists
};

}  // namespace cbtc::graph
