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
/// the smaller candidate degree and reads each hop's power from
/// `power`, c's per-arc required link powers (entry c.first_arc(a) + k
/// is the arc a -> c.neighbors(a)[k], priced in that direction).
bool two_hop_witness(const graph::undirected_graph& c, std::span<const double> power,
                     graph::node_id u, graph::node_id v, const gain_edge_id& eid_uv) {
  const graph::node_id apex = c.degree(u) <= c.degree(v) ? u : v;
  const graph::node_id other = apex == u ? v : u;
  const std::span<const graph::node_id> nb = c.neighbors(apex);
  const std::size_t first = c.first_arc(apex);
  for (std::size_t k = 0; k < nb.size(); ++k) {
    const graph::node_id w = nb[k];
    if (w == other) continue;
    if (!(gain_edge_id{power[first + k], std::max(apex, w), std::min(apex, w)} < eid_uv)) continue;
    const std::span<const graph::node_id> wnb = c.neighbors(w);
    const auto it = std::lower_bound(wnb.begin(), wnb.end(), other);
    if (it == wnb.end() || *it != other) continue;
    const double hop = power[c.first_arc(w) + static_cast<std::size_t>(it - wnb.begin())];
    if (gain_edge_id{hop, std::max(w, other), std::min(w, other)} < eid_uv) return true;
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

bool bfs_witness(const graph::undirected_graph& c, std::span<const double> power,
                 graph::node_id u, graph::node_id v, const gain_edge_id& eid_uv,
                 std::size_t max_hops) {
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
      const std::span<const graph::node_id> nb = c.neighbors(a);
      const std::size_t first = c.first_arc(a);
      for (std::size_t k = 0; k < nb.size(); ++k) {
        const graph::node_id w = nb[k];
        if (s.mark[w] == s.epoch) continue;
        if (!(gain_edge_id{power[first + k], std::max(a, w), std::min(a, w)} < eid_uv)) continue;
        if (w == v) return true;
        s.mark[w] = s.epoch;
        s.nxt.push_back(w);
      }
    }
    std::swap(s.cur, s.nxt);
  }
  return false;
}

bool has_power_witness(const graph::undirected_graph& c, std::span<const double> power,
                       graph::node_id u, graph::node_id v, const gain_edge_id& eid_uv,
                       std::size_t max_hops) {
  // A zero-power edge joins coincident nodes; a "cheaper" path exists
  // only by id tie-break, which proves nothing physical. Mirror the
  // pairwise pass: never redundant.
  if (eid_uv.power == 0.0) return false;
  if (max_hops < 2) return false;
  if (two_hop_witness(c, power, u, v, eid_uv)) return true;
  if (max_hops == 2) return false;
  return bfs_witness(c, power, u, v, eid_uv, max_hops);
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
  // Every candidate arc's required power, once per pass and in the
  // arc's own direction: the calls gain_edge_id::of would make for each
  // witness hop, so the same bits, with no symmetry assumed.
  std::vector<double> arc_power(2 * candidates.num_edges());
  pool.parallel_for(candidates.num_nodes(), [&](std::size_t i) {
    const auto a = static_cast<graph::node_id>(i);
    const std::span<const graph::node_id> nb = candidates.neighbors(a);
    const std::size_t first = candidates.first_arc(a);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      arc_power[first + k] = link.required_power(a, nb[k], positions[a], positions[nb[k]]);
    }
  });
  detail::removal_outcome out = detail::remove_redundant_edges(
      g, opts.remove_all, opts.gate,
      [&](graph::node_id u, graph::node_id v, std::size_t, std::size_t, double& power) {
        const gain_edge_id eid = gain_edge_id::of(u, v, positions, link);
        power = eid.power;
        return has_power_witness(candidates, arc_power, u, v, eid, opts.max_witness_hops);
      },
      repair, pool);
  return {std::move(out.topology), out.redundant_edges, out.removed_edges, out.restored_edges};
}

}  // namespace cbtc::algo
