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
//
// There is one growth implementation, over radio::link_model. Per-link
// gains (Sethu & Gerety, arXiv:0709.0961) change only the order of
// discovery, from distance to required link power p(d) / g; isotropic
// propagation is the compile-time distance case of the same kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "algo/params.h"
#include "geom/vec2.h"
#include "graph/digraph.h"
#include "graph/graph.h"
#include "graph/types.h"
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

  [[nodiscard]] bool operator==(const neighbor_record&) const = default;
};

/// Per-node outcome of CBTC(alpha).
struct node_result {
  std::vector<neighbor_record> neighbors;  // sorted by (distance, id)
  std::vector<double> level_powers;        // powers of the broadcasts performed
  double final_power{0.0};                 // p_{u,alpha}
  bool boundary{false};                    // alpha-gap remained at max power

  [[nodiscard]] bool knows(node_id v) const;
  /// rad^-_{u,alpha}: distance of the farthest node in N_alpha(u).
  [[nodiscard]] double out_radius() const;

  [[nodiscard]] bool operator==(const node_result&) const = default;
};

/// Whole-network outcome.
struct cbtc_result {
  cbtc_params params;
  std::vector<node_result> nodes;

  [[nodiscard]] std::size_t num_nodes() const { return nodes.size(); }

  /// The directed neighbor relation N_alpha, assembled per node on
  /// `pool` (identical output for any width).
  [[nodiscard]] graph::digraph neighbor_digraph(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// E_alpha: the symmetric closure (the paper's G_alpha edge set).
  /// Identical output for any pool width.
  [[nodiscard]] graph::undirected_graph symmetric_closure(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// E^-_alpha: the symmetric core (Section 3.2).
  [[nodiscard]] graph::undirected_graph symmetric_core(
      const util::thread_pool& pool = util::thread_pool(1)) const;

  /// Number of boundary nodes.
  [[nodiscard]] std::size_t boundary_count() const;

  [[nodiscard]] bool operator==(const cbtc_result&) const = default;
};

/// Runs CBTC(alpha) for every node. `positions` defines the network;
/// `link` supplies p(d), its inverse, the cap P = p(R) and the per-link
/// gains. Neighbors are discovered in order of required link power
/// p(d) / gain, and a broadcast at power p discovers exactly the nodes
/// whose link closes at p (the medium's decodability test). Isotropic
/// propagation is the compile-time distance case of the same growth:
/// discovery in distance order, a broadcast at p reaches range(p), and
/// a bare power_model converts to it implicitly.
[[nodiscard]] cbtc_result run_cbtc(std::span<const geom::vec2> positions,
                                   const radio::link_model& link, const cbtc_params& params);

}  // namespace cbtc::algo
