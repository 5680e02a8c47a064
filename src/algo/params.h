// Parameters of the basic CBTC(alpha) algorithm (Figure 1 of the paper).
#pragma once

#include <cstddef>

#include "geom/angle.h"

namespace cbtc::algo {

/// How a node grows its transmission power while hunting for cone coverage.
enum class growth_mode {
  /// The paper's scheme: p <- Increase(p) with Increase(p) = factor * p,
  /// starting from p0 and capped at the maximum power P. Each broadcast
  /// discovers every node within the current radius.
  discrete,
  /// Idealized scheme that grows power continuously: neighbors are
  /// discovered one at a time in distance order and growth stops at the
  /// exact power where the alpha-gap disappears. This is the limiting
  /// behaviour of `discrete` as factor -> 1 and matches the geometric
  /// constructions in the proofs (Theorems 2.4, Example 2.1).
  continuous,
};

struct cbtc_params {
  /// The cone degree alpha. The paper proves alpha <= 5*pi/6 preserves
  /// connectivity and that the bound is tight.
  double alpha{5.0 * geom::pi / 6.0};

  growth_mode mode{growth_mode::discrete};

  /// Initial power p0. Non-positive means "default": the power that
  /// reaches max_range / 16.
  double initial_power{-1.0};

  /// Increase(p) = increase_factor * p. Must be > 1.
  double increase_factor{2.0};

  /// Threads used *inside* one instance (per-node cone growth, the
  /// optimization passes, metric loops). 1 = serial (the default),
  /// 0 = hardware concurrency. Composes with batch-level threads
  /// through the process-wide executor (util/executor.h) — nested, not
  /// multiplied. Results are bitwise identical for every value —
  /// growth is per-node independent and reductions merge fixed-size
  /// blocks in block order.
  unsigned intra_threads{1};

  /// Minimum instance size at which the engine relabels nodes into
  /// spatial (Morton) order before running the oracle pipeline — so at
  /// scale spatial neighbors are cache neighbors — and inverts the
  /// permutation before the report is assembled (geom/spatial_order.h,
  /// api/engine.cpp). On deployments without exact distance ties (any
  /// random field) reports are bitwise-identical with the pass on or
  /// off at every thread count; analytic gadgets with coincident
  /// distances may resolve ties by the permuted ids, which is why this
  /// defaults to a threshold no preset reaches instead of "always".
  /// 0 = relabel every instance (tests force this).
  std::size_t relabel_min_nodes{65536};

  [[nodiscard]] bool operator==(const cbtc_params&) const = default;
};

/// Canonical alpha values studied in the paper.
inline constexpr double alpha_five_pi_six = 5.0 * geom::pi / 6.0;
inline constexpr double alpha_two_pi_three = 2.0 * geom::pi / 3.0;

/// Asymmetric edge removal (Section 3.2) is proved correct only for
/// alpha <= 2*pi/3; this is the guard the pipeline uses (with a small
/// epsilon so alpha == 2*pi/3 computed in floating point qualifies).
[[nodiscard]] inline bool asymmetric_removal_applicable(double alpha) {
  return alpha <= alpha_two_pi_three + 1e-12;
}

}  // namespace cbtc::algo
