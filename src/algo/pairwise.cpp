#include "algo/pairwise.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "algo/removal_pass.h"
#include "geom/angle.h"
#include "util/parallel.h"

namespace cbtc::algo {

edge_id edge_id::of(graph::node_id u, graph::node_id v, std::span<const geom::vec2> positions) {
  return {geom::distance(positions[u], positions[v]), std::max(u, v), std::min(u, v)};
}

namespace {

/// True if some neighbor w of `apex` witnesses the redundancy of the
/// edge (apex, other), whose arc apex -> other is `ao`: angle(other,
/// apex, w) < pi/3 and a smaller eid. `bearing` and `length` hold every
/// arc's bearing and length (entry g.first_arc(u) + k is the arc u ->
/// g.neighbors(u)[k]), taken once per pass: the same atan2 and hypot
/// calls on the same arguments, so the same bits. `eid_uv` is the
/// edge's id (the same from either apex: hypot ignores signs and hi/lo
/// are order-normalized).
bool has_arc_witness(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                     std::span<const double> bearing, std::span<const double> length,
                     graph::node_id apex, std::size_t ao, const edge_id& eid_uv) {
  if (eid_uv.length == 0.0) return false;  // zero-length edges are never redundant
  const double dir_other = bearing[ao];
  const std::span<const graph::node_id> nb = g.neighbors(apex);
  const std::size_t first = g.first_arc(apex);
  for (std::size_t k = 0; k < nb.size(); ++k) {
    const std::size_t aw = first + k;
    if (aw == ao) continue;
    const graph::node_id w = nb[k];
    // A coincident witness has no meaningful bearing and violates the
    // strict-triangle argument of Theorem 3.6 (d(w,v) would equal
    // d(u,v), not undercut it); skip it.
    if (positions[w] == positions[apex]) continue;
    // Strictly less than pi/3 (Definition 3.5), with last-ulp guard.
    if (geom::angle_dist(dir_other, bearing[aw]) >= geom::pi / 3.0 - 1e-12) continue;
    if (edge_id{length[aw], std::max(apex, w), std::min(apex, w)} < eid_uv) return true;
  }
  return false;
}

}  // namespace

pairwise_result apply_pairwise_removal(const graph::undirected_graph& g,
                                       std::span<const geom::vec2> positions,
                                       const pairwise_options& opts,
                                       const util::thread_pool& pool) {
  std::vector<double> bearing(2 * g.num_edges());
  std::vector<double> length(bearing.size());
  pool.parallel_for(g.num_nodes(), [&](std::size_t i) {
    const auto u = static_cast<graph::node_id>(i);
    const std::span<const graph::node_id> nb = g.neighbors(u);
    const std::size_t first = g.first_arc(u);
    for (std::size_t k = 0; k < nb.size(); ++k) {
      const geom::vec2 d = positions[nb[k]] - positions[u];
      bearing[first + k] = d.bearing();
      length[first + k] = d.norm();
    }
  });
  detail::removal_outcome out = detail::remove_redundant_edges(
      g, opts.remove_all, opts.gate,
      [&](graph::node_id u, graph::node_id v, std::size_t uv, std::size_t vu, double& metric) {
        const edge_id eid{length[uv], v, u};
        metric = eid.length;
        return has_arc_witness(g, positions, bearing, length, u, uv, eid) ||
               has_arc_witness(g, positions, bearing, length, v, vu, eid);
      },
      nullptr, pool);
  return {std::move(out.topology), out.redundant_edges, out.removed_edges};
}

}  // namespace cbtc::algo
