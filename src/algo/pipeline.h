// End-to-end topology construction: CBTC growth + optional optimizations.
//
// This is the main entry point of the library: it strings together the
// basic algorithm (Section 2) and the three optimizations (Section 3)
// in the order the paper composes them:
//   growth -> shrink-back (op1) -> asymmetric removal (op2, alpha <=
//   2*pi/3 only) -> pairwise removal (op3).
#pragma once

#include <span>

#include "algo/gain_removal.h"
#include "algo/oracle.h"
#include "algo/pairwise.h"
#include "algo/params.h"
#include "algo/shrink_back.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "radio/power_model.h"
#include "radio/propagation.h"

namespace cbtc::algo {

struct optimization_set {
  bool shrink_back{false};
  /// Requested asymmetric edge removal; silently skipped when
  /// alpha > 2*pi/3 (the paper's "all applicable optimizations").
  bool asymmetric_removal{false};
  bool pairwise_removal{false};
  /// Run the gain-aware removal (algo/gain_removal.h) as the op3 pass.
  /// Requires the link-aware apply_optimizations / build_topology
  /// overloads (the power-model-only paths have no gains to price
  /// witness paths with and throw std::invalid_argument). Note the
  /// link-aware paths also auto-route `pairwise_removal` to this pass
  /// whenever the propagation is non-isotropic — Theorem 3.6's angle
  /// witness is unit-disk-only — so this knob is for forcing the
  /// gain-aware pass under isotropic propagation.
  bool gain_aware{false};
  /// Shared op3 tuning: gain-aware removal reuses remove_all and the
  /// endpoint gate (over required link power instead of length).
  pairwise_options pairwise{};

  [[nodiscard]] static optimization_set none() { return {}; }
  [[nodiscard]] static optimization_set all() {
    return {.shrink_back = true, .asymmetric_removal = true, .pairwise_removal = true};
  }

  [[nodiscard]] bool operator==(const optimization_set&) const = default;
};

struct topology_result {
  /// Growth outcome after shrink-back (== raw growth if op1 disabled).
  cbtc_result growth;
  /// The final symmetric topology.
  graph::undirected_graph topology;
  /// Whether op2 actually ran (requested *and* alpha <= 2*pi/3).
  bool asymmetric_applied{false};
  /// op3 statistics (zeros if op3 disabled).
  std::size_t redundant_edges{0};
  std::size_t removed_edges{0};
  /// Whether op3 ran as the gain-aware pass (requested explicitly or
  /// auto-routed for a non-isotropic link).
  bool gain_aware_applied{false};
  /// Edges the gain-aware repair pass re-added (0 for the angle pass).
  std::size_t restored_edges{0};
};

/// Applies the selected optimizations to an already-grown CBTC outcome
/// (from the centralized oracle or the distributed protocol) and builds
/// the final symmetric topology. `grown.params` decides whether the
/// asymmetric removal is applicable. Throws std::invalid_argument when
/// opts.gain_aware is set — pricing witness paths needs a link model;
/// use the overload below.
[[nodiscard]] topology_result apply_optimizations(cbtc_result grown,
                                                  std::span<const geom::vec2> positions,
                                                  const optimization_set& opts = {});

/// Link-aware variant: op3 runs as the gain-aware removal whenever
/// opts.gain_aware is set or the propagation is non-isotropic (and as
/// Theorem 3.6's angle pass otherwise, bit for bit the overload
/// above).
[[nodiscard]] topology_result apply_optimizations(cbtc_result grown,
                                                  std::span<const geom::vec2> positions,
                                                  const radio::link_model& link,
                                                  const optimization_set& opts = {});

/// Runs CBTC(alpha) and the selected optimizations over `positions`.
/// Equivalent to apply_optimizations(run_cbtc(...), positions, opts).
[[nodiscard]] topology_result build_topology(std::span<const geom::vec2> positions,
                                             const radio::power_model& power,
                                             const cbtc_params& params,
                                             const optimization_set& opts = {});

/// Gain-aware variant (isotropic propagation delegates to the plain
/// power-model path, bit for bit).
[[nodiscard]] topology_result build_topology(std::span<const geom::vec2> positions,
                                             const radio::link_model& link,
                                             const cbtc_params& params,
                                             const optimization_set& opts = {});

}  // namespace cbtc::algo
