#include "algo/pairwise.h"

#include <algorithm>
#include <utility>

#include "algo/removal_pass.h"
#include "geom/angle.h"
#include "util/parallel.h"

namespace cbtc::algo {

edge_id edge_id::of(graph::node_id u, graph::node_id v, std::span<const geom::vec2> positions) {
  return {geom::distance(positions[u], positions[v]), std::max(u, v), std::min(u, v)};
}

namespace {

/// True if some neighbor w of `apex` witnesses the redundancy of the
/// edge (apex, other): angle(other, apex, w) < pi/3 and smaller eid.
/// `eid_uv` is the edge's id, precomputed by the caller (it is the
/// same from either apex: the distance is symmetric bit for bit and
/// hi/lo are order-normalized).
bool has_witness(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                 graph::node_id apex, graph::node_id other, const edge_id& eid_uv) {
  if (eid_uv.length == 0.0) return false;  // zero-length edges are never redundant
  const double dir_other = (positions[other] - positions[apex]).bearing();
  for (graph::node_id w : g.neighbors(apex)) {
    if (w == other) continue;
    // A coincident witness has no meaningful bearing and violates the
    // strict-triangle argument of Theorem 3.6 (d(w,v) would equal
    // d(u,v), not undercut it); skip it.
    if (positions[w] == positions[apex]) continue;
    const double dir_w = (positions[w] - positions[apex]).bearing();
    // Strictly less than pi/3 (Definition 3.5), with last-ulp guard.
    if (geom::angle_dist(dir_other, dir_w) >= geom::pi / 3.0 - 1e-12) continue;
    if (edge_id::of(apex, w, positions) < eid_uv) return true;
  }
  return false;
}

}  // namespace

bool is_redundant_edge(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                       graph::node_id u, graph::node_id v) {
  const edge_id eid = edge_id::of(u, v, positions);
  return has_witness(g, positions, u, v, eid) || has_witness(g, positions, v, u, eid);
}

pairwise_result apply_pairwise_removal(const graph::undirected_graph& g,
                                       std::span<const geom::vec2> positions,
                                       const pairwise_options& opts,
                                       const util::thread_pool& pool) {
  detail::removal_outcome out = detail::remove_redundant_edges(
      g, opts.remove_all, opts.gate,
      [&](graph::node_id u, graph::node_id v, double& length) {
        const edge_id eid = edge_id::of(u, v, positions);
        length = eid.length;
        return has_witness(g, positions, u, v, eid) || has_witness(g, positions, v, u, eid);
      },
      nullptr, pool);
  return {std::move(out.topology), out.redundant_edges, out.removed_edges};
}

}  // namespace cbtc::algo
