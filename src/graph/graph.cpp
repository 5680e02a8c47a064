#include "graph/graph.h"

#include <algorithm>
#include <cassert>

namespace cbtc::graph {

bool undirected_graph::has_edge(node_id u, node_id v) const {
  if (u >= num_nodes() || v >= num_nodes()) return false;
  const std::span<const node_id> list = neighbors(u);
  return std::binary_search(list.begin(), list.end(), v);
}

undirected_graph undirected_graph::induced(const std::vector<bool>& mask) const {
  const auto kept = [&](node_id u) { return u < mask.size() && mask[u]; };
  // A kept node keeps its kept neighbors; a masked-out node keeps none.
  const auto candidates = [&](node_id u) {
    return kept(u) ? neighbors(u) : std::span<const node_id>{};
  };
  return assemble<undirected_graph>(
      num_nodes(),
      [&](node_id u) {
        const std::span<const node_id> nb = candidates(u);
        return static_cast<std::size_t>(std::count_if(nb.begin(), nb.end(), kept));
      },
      [&](node_id u, std::span<node_id> out) {
        const std::span<const node_id> nb = candidates(u);
        std::copy_if(nb.begin(), nb.end(), out.begin(), kept);
      });
}

undirected_graph undirected_graph::from_edges(std::size_t num_nodes, std::vector<edge> edges) {
  for (edge& e : edges) {
    assert(e.u < num_nodes && e.v < num_nodes);
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::erase_if(edges, [](const edge& e) { return e.u == e.v; });
  std::sort(edges.begin(), edges.end(), [](const edge& a, const edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::vector<std::size_t> offsets(num_nodes + 1, 0);
  for (const edge& e : edges) {
    ++offsets[e.u + 1];
    ++offsets[e.v + 1];
  }
  for (std::size_t u = 0; u < num_nodes; ++u) offsets[u + 1] += offsets[u];
  // In lexicographic edge order every node receives its lower
  // neighbors (as the v end) before its higher ones (as the u end),
  // each run ascending, so the lists fill already sorted.
  std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
  std::vector<node_id> flat(offsets[num_nodes]);
  for (const edge& e : edges) {
    flat[cursor[e.u]++] = e.v;
    flat[cursor[e.v]++] = e.u;
  }
  return from_csr(std::move(offsets), std::move(flat));
}

undirected_graph undirected_graph::from_csr(std::vector<std::size_t> offsets,
                                            std::vector<node_id> neighbors) {
  assert(!offsets.empty());
  assert(offsets.front() == 0);
  assert(offsets.back() == neighbors.size());
#ifndef NDEBUG
  for (node_id u = 0; u + 1 < offsets.size(); ++u) {
    assert(offsets[u] <= offsets[u + 1]);
    const auto lo = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto hi = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    assert(std::is_sorted(lo, hi));
    assert(std::adjacent_find(lo, hi) == hi);
    assert(!std::binary_search(lo, hi, u));
    for (auto it = lo; it != hi; ++it) {
      const auto vlo = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[*it]);
      const auto vhi = neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[*it + 1]);
      assert(std::binary_search(vlo, vhi, u));  // symmetric
    }
  }
#endif
  undirected_graph g;
  g.offsets_ = std::move(offsets);
  g.flat_ = std::move(neighbors);
  return g;
}

std::vector<edge> undirected_graph::edges() const {
  std::vector<edge> out;
  out.reserve(num_edges());
  for (node_id u = 0; u < num_nodes(); ++u) {
    for (node_id v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

}  // namespace cbtc::graph
