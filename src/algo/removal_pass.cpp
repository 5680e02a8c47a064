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
  std::vector<graph::edge> edges(m);
  pool.parallel_for(n, [&](std::size_t u) {
    const auto uid = static_cast<graph::node_id>(u);
    const std::span<const graph::node_id> nb = g.neighbors(uid);
    std::size_t w = eoff[u];
    for (auto it = std::upper_bound(nb.begin(), nb.end(), uid); it != nb.end(); ++it) {
      edges[w++] = {uid, *it};
    }
  });
  /// Index of edge {a, b} (a < b) in the table.
  const auto edge_index = [&](graph::node_id a, graph::node_id b) {
    const std::span<const graph::node_id> nb = g.neighbors(a);
    const auto first = std::upper_bound(nb.begin(), nb.end(), a);
    return eoff[a] + static_cast<std::size_t>(std::lower_bound(first, nb.end(), b) - first);
  };
  /// Calls f(v, i) for every neighbor v of u, in order, with the table
  /// index i of edge {u, v}.
  const auto for_each_incident = [&](graph::node_id u, auto&& f) {
    std::size_t up = eoff[u];
    for (const graph::node_id v : g.neighbors(u)) f(v, v > u ? up++ : edge_index(v, u));
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
          redundant[i] = classify(edges[i].u, edges[i].v, metric[i]) ? 1 : 0;
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
