// Gain-aware redundant-edge removal (op3 for non-isotropic links).
//
// Theorem 3.6's pairwise removal is a unit-disk argument: its witness
// is *geometric* (a neighbor inside the pi/3 cone is closer to the far
// endpoint by the law of cosines), which is only meaningful when the
// power needed for a link is a monotone function of its length. Under
// lognormal shadowing or obstacle fields that monotonicity is gone —
// a short link through a wall can cost more than a long free-space
// one — so since the propagation layer landed, non-isotropic presets
// could not run any op3-class pass at all.
//
// This pass replaces the angle witness with a *link-power* witness:
// the symmetric edge (u, v) is redundant iff the gain-aware candidate
// graph G_R contains a u-v path of at most `max_witness_hops` hops in
// which every hop's required link power is strictly smaller than the
// power required for (u, v) itself — strictly, in the total order
//
//     gain_edge_id = (required_power, max(u, v), min(u, v))
//
// which breaks power ties by node ids exactly like algo::edge_id
// breaks length ties. The strict descent makes the replacement
// argument well-founded: walking any dropped edge's witness path and
// recursively expanding dropped hops must terminate, because each
// expansion strictly decreases the largest gain_edge_id involved, so
// connectivity of the candidate graph is preserved by induction — the
// same induction that proves Theorem 3.6, with power substituted for
// length.
//
// Under isotropic propagation required power is a strictly increasing
// function of length, so the two total orders coincide, and every
// Definition 3.5 witness w of (u, v) yields the 2-hop candidate path
// u—w—v with strictly smaller ids ((u, w) is shorter by definition;
// (w, v) is strictly shorter than (u, v) by the law of cosines with
// the angle < pi/3). Hence the gain-aware drop set is a superset of
// the Theorem 3.6 drop set (with matching gate/remove_all settings) —
// the pass is a strict generalization, not a divergent heuristic.
//
// One caveat the angle pass does not have: Theorem 3.6 removes edges
// of a topology that the cone-coverage property already proved
// connected, while this pass's induction proves connectivity in the
// *candidate* graph — the witness path may use candidate edges the
// input topology dropped during growth/shrink-back. For alpha <=
// 2*pi/3 every such hop is again covered inside a cone and the
// argument closes; for the paper's alpha = 5*pi/6 default it can (in
// adversarial geometries) leave the surviving topology with more
// components than the input. A deterministic serial repair pass
// therefore re-adds dropped edges in ascending gain_edge_id order
// until the input's component partition is restored — in practice it
// restores nothing, but it turns "connected with overwhelming
// probability" into "connected, unconditionally".
#pragma once

#include <cstddef>
#include <span>

#include "algo/pairwise.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::algo {

/// Total order on symmetric edges by required link power, ties broken
/// by node ids. The power is bitwise symmetric (distance and gain both
/// are), so both endpoints compute the identical id.
struct gain_edge_id {
  double power{0.0};
  graph::node_id hi{0};
  graph::node_id lo{0};

  [[nodiscard]] static gain_edge_id of(graph::node_id u, graph::node_id v,
                                       std::span<const geom::vec2> positions,
                                       const radio::link_model& link);

  [[nodiscard]] friend constexpr auto operator<=>(const gain_edge_id&,
                                                  const gain_edge_id&) = default;
};

struct gain_removal_options {
  /// Remove every redundant edge (ignore the radius gate), mirroring
  /// pairwise_options::remove_all.
  bool remove_all{false};
  /// Which endpoints' power budget must shrink for a removal to count
  /// (same semantics as the pairwise gate, with required link power in
  /// place of edge length).
  pairwise_gate gate{pairwise_gate::either_endpoint};
  /// Hop bound of the witness-path search. 2 keeps the pass
  /// Theorem-3.6-comparable and near-linear; larger bounds run a
  /// depth-limited breadth-first search per edge.
  std::size_t max_witness_hops{2};
};

struct gain_removal_result {
  graph::undirected_graph topology;
  /// Edges with a strictly cheaper witness path in the candidate graph.
  std::size_t redundant_edges{0};
  /// Edges actually removed (redundant, past the gate, minus restores).
  std::size_t removed_edges{0};
  /// Edges the connectivity repair pass re-added (0 in practice; see
  /// the header comment).
  std::size_t restored_edges{0};
};

/// Applies gain-aware removal to the symmetric topology `g`.
/// `candidates` is the gain-aware max-power graph G_R over the same
/// node set (graph::build_max_power_graph(positions, link, pool));
/// witness paths live there, so redundancy decisions are independent
/// of which edges earlier passes already pruned. Each candidate arc's
/// required power is computed once per pass, on `pool`.
[[nodiscard]] gain_removal_result apply_gain_aware_removal(
    const graph::undirected_graph& g, const graph::undirected_graph& candidates,
    std::span<const geom::vec2> positions, const radio::link_model& link,
    const gain_removal_options& opts = {}, const util::thread_pool& pool = util::thread_pool(1));

}  // namespace cbtc::algo
