// Radio power model — the *isotropic* special case of the per-link
// propagation layer (see radio/propagation.h).
//
// The paper assumes every node has a power function p where p(d) is the
// minimum power needed to reach a node at distance d, that the power
// required grows as the n-th power of distance for some n >= 2
// [Rappaport 96], and that p(R) = P where R is the maximum
// communication radius and P the (common) maximum transmission power.
//
// We use the standard free-space/two-ray form p(d) = d^n with unit path
// loss constant and unit reception threshold, so that
//   rx_power = tx_power / d^n   and   "decodable" <=> rx_power >= 1.
// The algorithm only ever consumes *ratios* of powers, so the constants
// cancel and this loses no generality (see "Fidelity to the paper" in
// README.md).
//
// Non-uniform fields (lognormal shadowing, obstacle attenuation) scale
// these quantities by a per-link gain; radio::link_model composes this
// class with a radio::propagation_model and is what reachability
// consumers take. A link_model with the default isotropic propagation
// reproduces this class's arithmetic bit for bit.
#pragma once

#include <cstdint>

namespace cbtc::radio {

class power_model {
 public:
  /// `exponent` is the path-loss exponent n (>= 1); `max_range` is R.
  /// The maximum power P is derived as p(R).
  power_model(double exponent, double max_range);

  /// p(d): minimum transmission power required to reach distance d.
  [[nodiscard]] double required_power(double distance) const;

  /// p^-1: the maximum distance reachable with transmission power `p`
  /// (not clamped to R; callers clamp when modeling hardware limits).
  [[nodiscard]] double range(double power) const;

  /// Power received at distance `d` from a transmitter using `tx_power`.
  /// Infinite at d == 0 is avoided by clamping to a tiny distance.
  [[nodiscard]] double rx_power(double tx_power, double distance) const;

  /// True if a signal transmitted with `tx_power` is decodable at
  /// distance `d` (reception power above the unit threshold).
  [[nodiscard]] bool reaches(double tx_power, double distance) const;

  /// The receiver-side estimate of p(d) from the advertised transmit
  /// power and the measured reception power (Section 2: "given the
  /// transmission power p and the reception power p', u can estimate
  /// p(d(u,v))").
  [[nodiscard]] double estimate_required_power(double tx_power, double rx_power) const;

  [[nodiscard]] double max_power() const { return max_power_; }
  [[nodiscard]] double max_range() const { return max_range_; }
  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  double exponent_;
  double max_range_;
  double max_power_;
};

}  // namespace cbtc::radio
