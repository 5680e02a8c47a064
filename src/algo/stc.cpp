#include "algo/stc.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algo/gain_removal.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"

namespace cbtc::algo {

stc_result build_stc_topology(std::span<const geom::vec2> positions,
                              const radio::link_model& link,
                              const util::thread_pool& pool) {
  const graph::undirected_graph candidates = graph::build_max_power_graph(positions, link, pool);
  return build_stc_topology(candidates, positions, link, pool);
}

stc_result build_stc_topology(const graph::undirected_graph& candidates,
                              std::span<const geom::vec2> positions,
                              const radio::link_model& link,
                              const util::thread_pool& pool) {
  stc_result res;
  const std::size_t n = candidates.num_nodes();

  // Per-node keep decisions: each slot written by exactly one task, so
  // the outcome is width-independent by construction. kept[u] ends up
  // sorted by node id (a digraph's out-list order), with the scan
  // itself running in ascending gain_edge_id order.
  std::vector<std::vector<graph::node_id>> kept(n);
  res.kept_links = pool.reduce<std::size_t>(
      n, 0,
      [&](std::size_t lo, std::size_t hi) {
        std::size_t count = 0;
        std::vector<std::pair<gain_edge_id, graph::node_id>> order;
        std::vector<graph::node_id> mine;
        for (std::size_t u = lo; u < hi; ++u) {
          const auto uid = static_cast<graph::node_id>(u);
          const std::span<const graph::node_id> nb = candidates.neighbors(uid);
          order.clear();
          order.reserve(nb.size());
          for (const graph::node_id v : nb) {
            order.emplace_back(gain_edge_id::of(uid, v, positions, link), v);
          }
          // gain_edge_id is a strict total order (power, then ids), so
          // the sort has no equal keys and the scan order is unique.
          std::sort(order.begin(), order.end());
          mine.clear();
          for (const auto& [eid_uv, v] : order) {
            bool covered = false;
            for (const graph::node_id k : mine) {
              const std::span<const graph::node_id> knb = candidates.neighbors(k);
              if (!std::binary_search(knb.begin(), knb.end(), v)) continue;
              if (gain_edge_id::of(k, v, positions, link) < eid_uv) {
                covered = true;
                break;
              }
            }
            if (!covered) mine.push_back(v);
          }
          count += mine.size();
          kept[u] = mine;
          std::sort(kept[u].begin(), kept[u].end());
        }
        return count;
      },
      [](std::size_t& total, const std::size_t& part) { total += part; });
  res.pruned_links = candidates.num_edges() * 2 - res.kept_links;

  // Edge {u, v} survives iff either endpoint kept it: the symmetric
  // closure of the kept relation.
  const graph::digraph kept_relation = graph::assemble<graph::digraph>(
      n, [&](graph::node_id u) { return kept[u].size(); },
      [&](graph::node_id u, std::span<graph::node_id> out) {
        std::copy(kept[u].begin(), kept[u].end(), out.begin());
      },
      pool);
  res.topology = kept_relation.symmetric_closure(pool);
  return res;
}

}  // namespace cbtc::algo
