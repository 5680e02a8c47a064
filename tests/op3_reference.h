// Reference classifier of optimization 3 (Definition 3.5), kept as the
// tests' oracle: it takes every bearing and length straight from the
// positions, one witness at a time, the way the paper states the rule.
// apply_pairwise_removal computes each arc's bearing and length once
// per pass instead; with remove_all it must drop exactly the edges this
// reference calls redundant.
#pragma once

#include <algorithm>
#include <span>

#include "algo/pairwise.h"
#include "geom/angle.h"
#include "geom/vec2.h"
#include "graph/graph.h"

namespace cbtc::algo {

/// True if some neighbor w of `apex` witnesses the redundancy of the
/// edge (apex, other): angle(other, apex, w) < pi/3 and smaller eid.
/// `eid_uv` is the edge's id (the same from either apex).
inline bool has_witness(const graph::undirected_graph& g, std::span<const geom::vec2> positions,
                        graph::node_id apex, graph::node_id other, const edge_id& eid_uv) {
  if (eid_uv.length == 0.0) return false;  // zero-length edges are never redundant
  const double dir_other = (positions[other] - positions[apex]).bearing();
  for (graph::node_id w : g.neighbors(apex)) {
    if (w == other) continue;
    // A coincident witness has no meaningful bearing and violates the
    // strict-triangle argument of Theorem 3.6; skip it.
    if (positions[w] == positions[apex]) continue;
    const double dir_w = (positions[w] - positions[apex]).bearing();
    // Strictly less than pi/3 (Definition 3.5), with last-ulp guard.
    if (geom::angle_dist(dir_other, dir_w) >= geom::pi / 3.0 - 1e-12) continue;
    if (edge_id::of(apex, w, positions) < eid_uv) return true;
  }
  return false;
}

/// True if edge {u, v} is redundant in `g` per Definition 3.5 (checked
/// from both endpoints; the witness w may sit at either end).
inline bool is_redundant_edge(const graph::undirected_graph& g,
                              std::span<const geom::vec2> positions, graph::node_id u,
                              graph::node_id v) {
  const edge_id eid = edge_id::of(u, v, positions);
  return has_witness(g, positions, u, v, eid) || has_witness(g, positions, v, u, eid);
}

}  // namespace cbtc::algo
