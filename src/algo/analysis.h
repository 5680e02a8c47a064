// Cross-cutting invariant checks used by tests, examples, and benches.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::algo {

struct invariant_report {
  bool subgraph_of_max_power{false};    // every edge also in G_R
  bool connectivity_preserved{false};   // same component partition as G_R
  bool radii_within_max_range{false};   // no node needs more than R
  std::vector<std::string> violations;  // human-readable details

  [[nodiscard]] bool ok() const {
    return subgraph_of_max_power && connectivity_preserved && radii_within_max_range;
  }
};

/// Checks the paper's three desiderata for a topology-control output
/// (Section 1): subgraph of G_R, connectivity preservation, and no node
/// transmitting beyond its maximum. `max_power_graph` must be the
/// link-aware G_R (graph::build_max_power_graph(positions, link)), so
/// engines that already built it pay for no second construction.
/// Under isotropic propagation the third desideratum is "no node needs
/// a radius beyond R"; under per-link gains it generalizes to "no node
/// needs more than the maximum power P on any incident link". The
/// per-node scan reduces in fixed block order on `pool`, so the report
/// (flags and violation order) is identical for any pool width.
[[nodiscard]] invariant_report check_invariants(
    const graph::undirected_graph& topology, std::span<const geom::vec2> positions,
    const radio::link_model& link, const graph::undirected_graph& max_power_graph,
    const util::thread_pool& pool = util::thread_pool(1));

}  // namespace cbtc::algo
