// Centralized "oracle" execution of CBTC(alpha).
//
// Computes, from node positions alone, exactly what the distributed
// protocol of Figure 1 computes per node: the discovered neighbor set
// N_alpha(u), the discovery power tag of every neighbor, the final
// broadcast power p_{u,alpha}, and whether u ended as a boundary node
// (still has an alpha-gap at maximum power).
//
// The oracle is the executable specification: proto/cbtc_agent runs the
// same algorithm with real messages on the simulator, and the test
// suite asserts the two produce identical neighbor relations.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algo/params.h"
#include "geom/vec2.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "graph/types.h"
#include "radio/power_model.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace cbtc::algo {

using graph::node_id;

/// One discovered neighbor of a node.
struct neighbor_record {
  node_id id{graph::invalid_node};
  double distance{0.0};
  double direction{0.0};        // bearing from the discovering node, [0, 2*pi)
  std::uint32_t level{0};       // index into node_result::level_powers
  double discovery_power{0.0};  // the power tag (Section 3.1 / Section 4)
};

/// Per-node outcome of CBTC(alpha).
struct node_result {
  std::vector<neighbor_record> neighbors;  // sorted by (distance, id)
  std::vector<double> level_powers;        // powers of the broadcasts performed
  double final_power{0.0};                 // p_{u,alpha}
  bool boundary{false};                    // alpha-gap remained at max power

  [[nodiscard]] bool knows(node_id v) const;
  /// Directions of all current neighbors (the set D_u).
  [[nodiscard]] std::vector<double> directions() const;
  /// rad^-_{u,alpha}: distance of the farthest node in N_alpha(u).
  [[nodiscard]] double out_radius() const;
};

/// Whole-network outcome.
struct cbtc_result {
  cbtc_params params;
  std::vector<node_result> nodes;

  [[nodiscard]] std::size_t num_nodes() const { return nodes.size(); }

  /// The directed neighbor relation N_alpha.
  [[nodiscard]] graph::digraph neighbor_digraph() const;

  /// E_alpha: the symmetric closure (the paper's G_alpha edge set).
  /// Identical output for any pool width.
  [[nodiscard]] graph::undirected_graph symmetric_closure(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// E^-_alpha: the symmetric core (Section 3.2).
  [[nodiscard]] graph::undirected_graph symmetric_core(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// Number of boundary nodes.
  [[nodiscard]] std::size_t boundary_count() const;
};

/// Runs CBTC(alpha) for every node. `positions` defines the network;
/// the power model supplies p(d), its inverse, and the cap P = p(R).
[[nodiscard]] cbtc_result run_cbtc(std::span<const geom::vec2> positions,
                                   const radio::power_model& power, const cbtc_params& params);

/// Gain-aware growth: neighbors are discovered in order of *required
/// link power* (p(d) / gain), which generalizes distance order; a
/// broadcast at power p discovers exactly the nodes whose link closes
/// at p (the medium's decodability test). Delegates to the isotropic
/// overload — identical results bit for bit — when `link` carries no
/// per-link gains.
[[nodiscard]] cbtc_result run_cbtc(std::span<const geom::vec2> positions,
                                   const radio::link_model& link, const cbtc_params& params);

}  // namespace cbtc::algo
