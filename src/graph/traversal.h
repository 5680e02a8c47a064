// Connectivity queries: components, reachability, BFS paths.
//
// The paper's central correctness claim is a connectivity-preservation
// statement ("u and v are connected in G_alpha iff they are connected
// in G_R"), so component structure comparison is the workhorse of the
// test suite.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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

// ---- component forests over adjacency views -------------------------
// A view is a callable `view(u, emit)` invoking `emit(v)` for every
// neighbor v of u (each edge visible from both endpoints). Graphs and
// the dynamic engine's incremental adjacencies (graph::closure_mirror,
// live_neighbor_index) are all read through views, so one forest build
// and one partition comparison serve both without snapshotting.

/// Disjoint-set forest of an adjacency view over nodes [0, n),
/// flattened after the build so `root[u]` is u's component
/// representative. Event-driven callers (the dynamic engine evaluates
/// connectivity at every changed instant) keep one across calls, so a
/// rebuild allocates nothing after the first.
struct component_forest {
  std::vector<node_id> root;
  std::vector<std::uint32_t> size;
  std::size_t sets{0};

  /// Rebuilds the forest of `view` over nodes [0, n) (union by size +
  /// path halving, O(m alpha)); `sets` is then its component count.
  template <class NeighborView>
  void build(std::size_t n, NeighborView&& view) {
    root.resize(n);
    size.assign(n, 1);
    for (node_id u = 0; u < n; ++u) root[u] = u;
    sets = n;
    for (node_id u = 0; u < n; ++u) {
      view(u, [&](node_id v) {
        if (v <= u) return;  // each edge once
        node_id ra = find(u);
        node_id rb = find(v);
        if (ra == rb) return;
        if (size[ra] < size[rb]) std::swap(ra, rb);
        root[rb] = ra;
        size[ra] += size[rb];
        --sets;
      });
    }
    for (node_id u = 0; u < n; ++u) root[u] = find(u);
  }

  /// True when the `live` nodes lie in one component, given that every
  /// other node is a singleton (a down node has no edges): the forest
  /// then has at most (n - live) + 1 components. Trivially true for
  /// fewer than two live nodes.
  [[nodiscard]] bool live_nodes_connected(std::size_t live) const {
    return sets <= root.size() - live + 1;
  }

 private:
  node_id find(node_id x) {
    while (root[x] != x) {
      root[x] = root[root[x]];  // path halving
      x = root[x];
    }
    return x;
  }
};

/// Partition equality of view `a`, whose built forest is `fa`, and the
/// forest `fb` over the same node set. Equal component counts plus "a
/// refines b" (every edge of `a` stays inside one b-component, hence
/// every a-component inside one b-component) force the partitions to
/// be equal. The edge check runs over fixed node blocks on `pool` and
/// only reads the flattened `fb`; identical verdict for any width.
template <class ViewA>
[[nodiscard]] bool same_partition(const component_forest& fa, ViewA&& a,
                                  const component_forest& fb,
                                  const util::thread_pool& pool = util::thread_pool(1)) {
  if (fa.sets != fb.sets || fa.root.size() != fb.root.size()) return false;
  return pool.reduce<bool>(
      fa.root.size(), true,
      [&](std::size_t lo, std::size_t hi) {
        bool within = true;
        for (auto u = static_cast<node_id>(lo); u < hi && within; ++u) {
          a(u, [&](node_id v) {
            if (v > u && fb.root[u] != fb.root[v]) within = false;
          });
        }
        return within;
      },
      [](bool& total, const bool& part) { total = total && part; });
}

/// True if `a` and `b` have identical component *partitions* — the
/// paper's preservation property: every pair connected in one is
/// connected in the other. Requires equal node counts.
///
/// Implemented as a union-find comparison, not a BFS pair: build both
/// forests, then same_partition above.
[[nodiscard]] bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                                     const util::thread_pool& pool = util::thread_pool(1));

/// Shortest path in hops from `from` to `to`; empty if unreachable.
/// The returned path includes both endpoints.
[[nodiscard]] std::vector<node_id> bfs_path(const undirected_graph& g, node_id from, node_id to);

/// Hop distances from `from` to every node (invalid_node if unreachable
/// is encoded as max uint32).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const undirected_graph& g, node_id from);

}  // namespace cbtc::graph
