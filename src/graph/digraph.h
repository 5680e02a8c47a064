// Directed graph over dense node ids.
//
// The raw CBTC neighbor relation N_alpha is *directed* (Example 2.1 of
// the paper shows it need not be symmetric). The paper derives two
// undirected topologies from it:
//   - E_alpha  = symmetric closure  (u,v) in N or (v,u) in N   (Section 2)
//   - E-_alpha = symmetric core     (u,v) in N and (v,u) in N  (Section 3.2)
//
// Like undirected_graph, a digraph holds either nested per-node
// vectors (mutable) or one flat CSR out-adjacency (immutable,
// cache-dense); out_neighbors(u) returns a span either way and
// mutation transparently converts CSR back to nested lists.
#pragma once

#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

class digraph {
 public:
  digraph() = default;
  explicit digraph(std::size_t num_nodes) : out_(num_nodes), num_nodes_(num_nodes) {}

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_arcs() const { return num_arcs_; }

  /// Adds the arc u -> v; ignores duplicates and self-loops.
  bool add_arc(node_id u, node_id v);
  bool remove_arc(node_id u, node_id v);
  [[nodiscard]] bool has_arc(node_id u, node_id v) const;

  [[nodiscard]] std::span<const node_id> out_neighbors(node_id u) const {
    if (is_flat()) {
      return {flat_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
    }
    return out_[u];
  }
  [[nodiscard]] std::size_t out_degree(node_id u) const { return out_neighbors(u).size(); }

  /// Symmetric closure: undirected edge {u,v} iff u->v or v->u. Built
  /// as flat CSR adjacency: the in-neighbor scatter is a two-pass
  /// count/fill with prefix-sum offsets, per-node merges run in
  /// parallel slots, and the result is adopted wholesale. Identical
  /// output for any pool width.
  [[nodiscard]] undirected_graph symmetric_closure(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// Symmetric core: undirected edge {u,v} iff u->v and v->u. Same
  /// count/fill CSR build as the closure.
  [[nodiscard]] undirected_graph symmetric_core(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// Logical equality regardless of representation.
  friend bool operator==(const digraph& a, const digraph& b);

  /// Adopts pre-built sorted out-lists wholesale (no per-arc
  /// insertion). Contract (asserted in debug builds): each list sorted
  /// ascending, no duplicates or self-loops.
  [[nodiscard]] static digraph from_adjacency(std::vector<std::vector<node_id>> out);

  /// Adopts a flat CSR out-adjacency wholesale; same contract.
  [[nodiscard]] static digraph from_csr(std::vector<std::size_t> offsets,
                                        std::vector<node_id> arcs);

  [[nodiscard]] bool is_flat() const { return !offsets_.empty(); }

 private:
  void materialize();

  std::vector<std::vector<node_id>> out_;  // nested rep: each list sorted ascending
  std::vector<std::size_t> offsets_;       // CSR rep (empty when nested)
  std::vector<node_id> flat_;
  std::size_t num_nodes_{0};
  std::size_t num_arcs_{0};
};

}  // namespace cbtc::graph
