// Sethu-Gerety step topology control (STC) for non-uniform path loss.
//
// Sethu & Gerety, "A new distributed topology control algorithm for
// wireless environments with non-uniform path loss and multipath
// propagation" (arXiv:0709.0961), give a topology-control rule that —
// unlike CBTC's cone argument — never reasons about geometry at all,
// only about per-link power. That makes it a natural yardstick for the
// gain-aware half of this codebase: it is correct under any
// propagation model the radio layer can produce, at the price of
// having no worst-case degree or stretch guarantee tied to alpha.
//
// Per node u, scan the candidate neighbors v in ascending
// gain_edge_id(u, v) order and keep the link unless some
// previously-kept neighbor k can reach v more cheaply than u can:
//
//     keep(u, v)  unless  exists k in kept(u) with (k, v) a candidate
//                         link and id(k, v) < id(u, v)
//
// (id(u, k) < id(u, v) holds automatically from the scan order.) The
// final topology is the symmetric union of the per-node kept sets.
//
// Connectivity relative to the candidate graph G_R is unconditional,
// by induction over the strict total order on edge ids: if (u, v) is
// rejected, the witnesses (u, k) and (k, v) both have strictly
// smaller ids, and expanding rejected witnesses recursively must
// terminate, so every candidate edge is spanned by a kept path. The
// per-node decisions are independent (each reads only the candidate
// graph), so the construction parallelizes as slot writes and is
// bitwise identical at any pool width.
#pragma once

#include <cstddef>
#include <span>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::algo {

struct stc_result {
  /// Symmetric union of the per-node kept link sets.
  graph::undirected_graph topology;
  /// Directed keep decisions summed over all nodes (an edge kept from
  /// both sides counts twice).
  std::size_t kept_links{0};
  /// Directed reject decisions summed over all nodes.
  std::size_t pruned_links{0};
};

/// Runs STC over a prebuilt gain-aware candidate graph G_R.
[[nodiscard]] stc_result build_stc_topology(const graph::undirected_graph& candidates,
                                            std::span<const geom::vec2> positions,
                                            const radio::link_model& link,
                                            const util::thread_pool& pool = util::thread_pool(1));

/// Convenience overload: builds the candidate graph itself.
[[nodiscard]] stc_result build_stc_topology(std::span<const geom::vec2> positions,
                                            const radio::link_model& link,
                                            const util::thread_pool& pool = util::thread_pool(1));

}  // namespace cbtc::algo
