// Angle arithmetic on the circle [0, 2*pi).
//
// CBTC reasons about *directions* (angles of arrival) rather than
// positions, so robust circular arithmetic is a core primitive: the
// gap-alpha test of Figure 1 and the cover-alpha sets of Section 3.1
// are both built on top of these helpers.
#pragma once

#include <numbers>
#include <span>
#include <vector>

namespace cbtc::geom {

inline constexpr double two_pi = 2.0 * std::numbers::pi;
inline constexpr double pi = std::numbers::pi;

/// Normalizes an angle to [0, 2*pi).
[[nodiscard]] double norm_angle(double theta);

/// Signed smallest rotation from `a` to `b`, in (-pi, pi].
[[nodiscard]] double angle_diff(double b, double a);

/// Absolute circular distance between two angles, in [0, pi].
[[nodiscard]] double angle_dist(double a, double b);

/// True if `theta` lies on the counterclockwise arc from `lo` to `hi`
/// (all normalized; the arc includes both endpoints).
[[nodiscard]] bool angle_in_ccw_arc(double theta, double lo, double hi);

/// The largest circular gap between consecutive directions of
/// `sorted`, which must be sorted ascending and normalized (what
/// sorted_normalized returns). Returns 2*pi for an empty set (the whole
/// circle is one gap) and for a single direction. O(k), no allocation.
[[nodiscard]] double max_sorted_gap(std::span<const double> sorted);

/// The paper's gap-alpha test (Section 2) on sorted, normalized
/// directions: true iff some cone of degree `alpha` centered at the
/// node contains no direction, i.e. iff max_sorted_gap exceeds
/// `alpha`. A caller that keeps its directions sorted as it adds them
/// (the oracle's growth) tests in O(k) without allocating.
[[nodiscard]] bool has_sorted_alpha_gap(std::span<const double> sorted, double alpha);

/// has_sorted_alpha_gap(sorted_normalized(directions), alpha):
/// directions need not be sorted or normalized.
[[nodiscard]] bool has_alpha_gap(std::span<const double> directions, double alpha);

/// Sorted normalized copy of `directions`.
[[nodiscard]] std::vector<double> sorted_normalized(std::span<const double> directions);

}  // namespace cbtc::geom
