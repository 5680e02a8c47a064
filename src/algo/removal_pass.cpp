#include "algo/removal_pass.h"

#include <algorithm>
#include <vector>

namespace cbtc::algo::detail {

removal_outcome remove_redundant_edges(const graph::undirected_graph& g, bool remove_all,
                                       pairwise_gate gate, const edge_classifier& classify,
                                       const drop_repair& repair,
                                       const util::thread_pool& pool) {
  removal_outcome res;
  const std::size_t n = g.num_nodes();

  // Lex-sorted edge table with per-node offsets: node u's up-edges
  // {u, v > u} occupy indices [eoff[u], eoff[u + 1]), so the index of
  // any incident edge is computable locally — the per-node passes
  // below never need a serial scatter.
  std::vector<std::size_t> eoff(n + 1, 0);
  {
    std::vector<std::size_t> updeg(n);
    pool.parallel_for(n, [&](std::size_t u) {
      const std::span<const graph::node_id> nb = g.neighbors(static_cast<graph::node_id>(u));
      updeg[u] = static_cast<std::size_t>(
          nb.end() - std::upper_bound(nb.begin(), nb.end(), static_cast<graph::node_id>(u)));
    });
    for (std::size_t u = 0; u < n; ++u) eoff[u + 1] = eoff[u] + updeg[u];
  }
  const std::size_t m = eoff[n];
  // The edge table, each arc's edge index, and each edge's down arc
  // v -> u, in one per-node pass: a node's up-arcs {u, v > u} are the
  // last entries of its neighbor list, in table order, and each down
  // arc finds its edge by one binary search, here and nowhere else.
  std::vector<graph::edge> edges(m);
  std::vector<std::size_t> arc_edge(2 * m);
  std::vector<std::size_t> down_arc(m);
  pool.parallel_for(n, [&](std::size_t u) {
    const auto uid = static_cast<graph::node_id>(u);
    const std::span<const graph::node_id> nb = g.neighbors(uid);
    const std::size_t first = g.first_arc(uid);
    std::size_t up = eoff[u];
    for (std::size_t k = 0; k < nb.size(); ++k) {
      const graph::node_id v = nb[k];
      if (v > uid) {
        edges[up] = {uid, v};
        arc_edge[first + k] = up++;
      } else {
        const std::span<const graph::node_id> vnb = g.neighbors(v);
        const auto lo = std::upper_bound(vnb.begin(), vnb.end(), v);
        const std::size_t i =
            eoff[v] + static_cast<std::size_t>(std::lower_bound(lo, vnb.end(), uid) - lo);
        arc_edge[first + k] = i;
        down_arc[i] = first + k;
      }
    }
  });
  /// The arc u -> v of edge i = {u < v}: up-arcs close u's list.
  const auto up_arc = [&](std::size_t i) {
    const graph::node_id u = edges[i].u;
    return g.first_arc(u) + g.degree(u) - (eoff[u + 1] - i);
  };
  /// Calls f(v, i) for every neighbor v of u, in order, with the table
  /// index i of edge {u, v}.
  const auto for_each_incident = [&](graph::node_id u, auto&& f) {
    const std::span<const graph::node_id> nb = g.neighbors(u);
    const std::size_t first = g.first_arc(u);
    for (std::size_t k = 0; k < nb.size(); ++k) f(nb[k], arc_edge[first + k]);
  };

  // Per-edge classification: each slot written exactly once (chars,
  // not vector<bool> — concurrent bit writes would race), the count
  // reduced in fixed block order. The gate metric comes out of the
  // classifier, so the passes below never recompute it.
  std::vector<unsigned char> redundant(m, 0);
  std::vector<double> metric(m);
  res.redundant_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          redundant[i] =
              classify(edges[i].u, edges[i].v, up_arc(i), down_arc[i], metric[i]) ? 1 : 0;
          count += redundant[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  // Largest metric of a non-redundant edge at each node: removing only
  // redundant edges above it cannot raise any node's radius (or power)
  // and brings every node's down to exactly it. One slot per node; max
  // over a fixed set of doubles is exact, so it is width-independent.
  std::vector<double> needed(n, 0.0);
  if (!remove_all) {
    pool.parallel_for(n, [&](std::size_t u) {
      double best = 0.0;
      for_each_incident(static_cast<graph::node_id>(u), [&](graph::node_id, std::size_t i) {
        if (!redundant[i]) best = std::max(best, metric[i]);
      });
      needed[u] = best;
    });
  }

  // Drop verdicts per edge slot; the removal count folds in fixed
  // block order.
  std::vector<unsigned char> drop(m, 0);
  res.removed_edges = pool.reduce<std::size_t>(
      m, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          bool d = redundant[i] != 0;
          if (d && !remove_all) {
            const auto [u, v] = edges[i];
            d = gate == pairwise_gate::either_endpoint
                    ? (metric[i] > needed[u] || metric[i] > needed[v])
                    : (metric[i] > needed[u] && metric[i] > needed[v]);
          }
          drop[i] = d ? 1 : 0;
          count += drop[i];
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });

  if (res.removed_edges > 0 && repair) {
    res.restored_edges = repair(edges, metric, drop);
    res.removed_edges -= res.restored_edges;
  }

  res.topology = graph::assemble<graph::undirected_graph>(
      n,
      [&](graph::node_id u) {
        std::size_t count = 0;
        for_each_incident(u, [&](graph::node_id, std::size_t i) { count += drop[i] == 0; });
        return count;
      },
      [&](graph::node_id u, std::span<graph::node_id> out) {
        std::size_t w = 0;
        for_each_incident(u, [&](graph::node_id v, std::size_t i) {
          if (!drop[i]) out[w++] = v;
        });
      },
      pool);
  return res;
}

}  // namespace cbtc::algo::detail
