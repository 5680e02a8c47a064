// Connectivity queries: components, reachability, BFS paths.
//
// The paper's central correctness claim is a connectivity-preservation
// statement ("u and v are connected in G_alpha iff they are connected
// in G_R"), so component structure comparison is the workhorse of the
// test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::graph {

struct component_labels {
  std::vector<node_id> label;  // component id per node, dense in [0, count)
  std::size_t count{0};

  [[nodiscard]] bool same_component(node_id u, node_id v) const { return label[u] == label[v]; }
};

/// Connected components via BFS.
[[nodiscard]] component_labels connected_components(const undirected_graph& g);

/// True if the whole graph is one component (trivially true for n <= 1).
[[nodiscard]] bool is_connected(const undirected_graph& g);

/// True if u and v are in the same component.
[[nodiscard]] bool reachable(const undirected_graph& g, node_id u, node_id v);

/// Reusable buffers for same_connectivity_views: two disjoint-set
/// forests. Event-driven callers (the dynamic engine evaluates
/// connectivity at every topology-changing event) hold one across
/// calls so the comparison performs no allocations after the first
/// use.
struct connectivity_scratch {
  std::vector<node_id> root_a;
  std::vector<node_id> root_b;
  std::vector<std::uint32_t> size_a;
  std::vector<std::uint32_t> size_b;
};

/// True if `a` and `b` have identical component *partitions* — the
/// paper's preservation property: every pair connected in one is
/// connected in the other. Requires equal node counts.
///
/// Implemented as a union-find comparison, not a BFS pair: build both
/// forests (union by size + path halving, O(m alpha)), compare
/// component counts, then check that every edge of `a` stays inside
/// one `b`-component — a partition that refines another with the same
/// block count equals it. The edge-containment check runs over fixed
/// node blocks on `pool` (the forests are flattened first, so that
/// phase only reads). Identical verdict for any pool width.
[[nodiscard]] bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                                     const util::thread_pool& pool = util::thread_pool(1));

// ---- adjacency-view comparison --------------------------------------
// same_connectivity without materializing graphs: callers that hold an
// incremental adjacency (graph::closure_mirror, live_neighbor_index)
// compare partitions in place instead of snapshotting two
// undirected_graphs per evaluation. A view is a callable
// `view(u, emit)` invoking `emit(v)` for every neighbor v of u (each
// edge visible from both endpoints). The verdict is identical to the
// graph comparison: partitions — not forest shapes — decide.

namespace detail {

inline node_id view_uf_find(std::vector<node_id>& parent, node_id x) {
  while (parent[x] != x) {
    parent[x] = parent[parent[x]];  // path halving
    x = parent[x];
  }
  return x;
}

template <class NeighborView>
std::size_t view_uf_build(std::size_t n, NeighborView&& view, std::vector<node_id>& parent,
                          std::vector<std::uint32_t>& size) {
  parent.resize(n);
  size.assign(n, 1);
  for (node_id u = 0; u < n; ++u) parent[u] = u;
  std::size_t sets = n;
  for (node_id u = 0; u < n; ++u) {
    view(u, [&](node_id v) {
      if (v <= u) return;  // each edge once
      node_id ra = view_uf_find(parent, u);
      node_id rb = view_uf_find(parent, v);
      if (ra == rb) return;
      if (size[ra] < size[rb]) {
        const node_id t = ra;
        ra = rb;
        rb = t;
      }
      parent[rb] = ra;
      size[ra] += size[rb];
      --sets;
    });
  }
  for (node_id u = 0; u < n; ++u) parent[u] = view_uf_find(parent, u);
  return sets;
}

}  // namespace detail

/// Partition equality of two adjacency views over the same node set
/// (see above). Allocation-free after the first use of `scratch`.
template <class ViewA, class ViewB>
[[nodiscard]] bool same_connectivity_views(std::size_t n, ViewA&& a, ViewB&& b,
                                           connectivity_scratch& scratch) {
  if (detail::view_uf_build(n, a, scratch.root_a, scratch.size_a) !=
      detail::view_uf_build(n, b, scratch.root_b, scratch.size_b)) {
    return false;
  }
  // Equal component counts + "a refines b" force partition equality
  // (same argument as the graph comparison).
  bool within = true;
  for (node_id u = 0; u < n && within; ++u) {
    a(u, [&](node_id v) {
      if (v > u && scratch.root_b[u] != scratch.root_b[v]) within = false;
    });
  }
  return within;
}

/// Shortest path in hops from `from` to `to`; empty if unreachable.
/// The returned path includes both endpoints.
[[nodiscard]] std::vector<node_id> bfs_path(const undirected_graph& g, node_id from, node_id to);

/// Hop distances from `from` to every node (invalid_node if unreachable
/// is encoded as max uint32).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const undirected_graph& g, node_id from);

}  // namespace cbtc::graph
