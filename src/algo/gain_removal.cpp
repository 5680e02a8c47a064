#include "algo/gain_removal.h"

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "algo/removal_pass.h"
#include "graph/union_find.h"

namespace cbtc::algo {

gain_edge_id gain_edge_id::of(graph::node_id u, graph::node_id v,
                              std::span<const geom::vec2> positions,
                              const radio::link_model& link) {
  return {link.required_power(u, v, positions[u], positions[v]), std::max(u, v), std::min(u, v)};
}

namespace {

/// Two-hop witness: a common candidate neighbor w of u and v with both
/// hop ids strictly below eid_uv. The scan runs from the endpoint with
/// the smaller candidate degree and prices the first hop before the
/// (binary-search) membership probe for the second.
bool two_hop_witness(const graph::undirected_graph& c, std::span<const geom::vec2> positions,
                     const radio::link_model& link, graph::node_id u, graph::node_id v,
                     const gain_edge_id& eid_uv) {
  const graph::node_id apex = c.degree(u) <= c.degree(v) ? u : v;
  const graph::node_id other = apex == u ? v : u;
  for (graph::node_id w : c.neighbors(apex)) {
    if (w == other) continue;
    if (!(gain_edge_id::of(apex, w, positions, link) < eid_uv)) continue;
    const std::span<const graph::node_id> nb = c.neighbors(w);
    if (!std::binary_search(nb.begin(), nb.end(), other)) continue;
    if (gain_edge_id::of(w, other, positions, link) < eid_uv) return true;
  }
  return false;
}

/// Depth-limited breadth-first reachability u -> v over the candidate
/// subgraph of edges with id strictly below eid_uv. Earliest-depth
/// marking is exact for "exists a path of <= max_hops hops". The
/// scratch is per OS thread and epoch-stamped, so the classification
/// reduce reuses it across edges without clearing O(n) state per query.
struct bfs_scratch {
  std::vector<std::uint32_t> mark;
  std::vector<graph::node_id> cur, nxt;
  std::uint32_t epoch{0};
};

bool bfs_witness(const graph::undirected_graph& c, std::span<const geom::vec2> positions,
                 const radio::link_model& link, graph::node_id u, graph::node_id v,
                 const gain_edge_id& eid_uv, std::size_t max_hops) {
  thread_local bfs_scratch s;
  if (s.mark.size() < c.num_nodes()) {
    s.mark.assign(c.num_nodes(), 0);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {
    std::fill(s.mark.begin(), s.mark.end(), 0);
    s.epoch = 1;
  }
  s.cur.clear();
  s.cur.push_back(u);
  s.mark[u] = s.epoch;
  for (std::size_t depth = 1; depth <= max_hops && !s.cur.empty(); ++depth) {
    s.nxt.clear();
    for (const graph::node_id a : s.cur) {
      for (const graph::node_id w : c.neighbors(a)) {
        if (s.mark[w] == s.epoch) continue;
        if (!(gain_edge_id::of(a, w, positions, link) < eid_uv)) continue;
        if (w == v) return true;
        s.mark[w] = s.epoch;
        s.nxt.push_back(w);
      }
    }
    std::swap(s.cur, s.nxt);
  }
  return false;
}

bool has_power_witness(const graph::undirected_graph& c, std::span<const geom::vec2> positions,
                       const radio::link_model& link, graph::node_id u, graph::node_id v,
                       const gain_edge_id& eid_uv, std::size_t max_hops) {
  // A zero-power edge joins coincident nodes; a "cheaper" path exists
  // only by id tie-break, which proves nothing physical. Mirror the
  // pairwise pass: never redundant.
  if (eid_uv.power == 0.0) return false;
  if (max_hops < 2) return false;
  if (two_hop_witness(c, positions, link, u, v, eid_uv)) return true;
  if (max_hops == 2) return false;
  return bfs_witness(c, positions, link, u, v, eid_uv, max_hops);
}

}  // namespace

gain_removal_result apply_gain_aware_removal(const graph::undirected_graph& g,
                                             const graph::undirected_graph& candidates,
                                             std::span<const geom::vec2> positions,
                                             const radio::link_model& link,
                                             const gain_removal_options& opts,
                                             const util::thread_pool& pool) {
  // Witness paths live in the candidate graph, so for alpha > 2*pi/3
  // the surviving subgraph of `g` is not *provably* in one piece per
  // component of `g` (see the header comment). The repair re-adds
  // dropped edges in ascending gain_edge_id order until the kept
  // partition matches `g`'s partition again. Serial and keyed on the
  // width-independent drop verdicts, hence deterministic; a no-op
  // whenever the drop set was already safe.
  const auto repair = [n = g.num_nodes()](std::span<const graph::edge> edges,
                                          std::span<const double> powers,
                                          std::span<unsigned char> drop) {
    graph::union_find uf(n);
    std::vector<std::size_t> dropped;
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (drop[i]) {
        dropped.push_back(i);
      } else {
        uf.unite(edges[i].u, edges[i].v);
      }
    }
    std::sort(dropped.begin(), dropped.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(powers[a], edges[a].v, edges[a].u) <
             std::tie(powers[b], edges[b].v, edges[b].u);
    });
    std::size_t restored = 0;
    for (const std::size_t i : dropped) {
      if (uf.unite(edges[i].u, edges[i].v)) {
        drop[i] = 0;
        ++restored;
      }
    }
    return restored;
  };
  detail::removal_outcome out = detail::remove_redundant_edges(
      g, opts.remove_all, opts.gate,
      [&](graph::node_id u, graph::node_id v, double& power) {
        const gain_edge_id eid = gain_edge_id::of(u, v, positions, link);
        power = eid.power;
        return has_power_witness(candidates, positions, link, u, v, eid, opts.max_witness_hops);
      },
      repair, pool);
  return {std::move(out.topology), out.redundant_edges, out.removed_edges, out.restored_edges};
}

}  // namespace cbtc::algo
