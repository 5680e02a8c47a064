#include "radio/power_model.h"

#include <cmath>
#include <stdexcept>

namespace cbtc::radio {

namespace {
constexpr double min_distance = 1e-9;  // avoids a singular rx power at d == 0
}

power_model::power_model(double exponent, double max_range)
    : exponent_(exponent), max_range_(max_range), max_power_(std::pow(max_range, exponent)) {
  if (exponent < 1.0) throw std::invalid_argument("power_model: exponent must be >= 1");
  if (max_range <= 0.0) throw std::invalid_argument("power_model: max_range must be positive");
  // Growth climbs from p(R/16) to P; a P that overflows to inf (or
  // underflows to 0) never lets a broadcast happen.
  if (!std::isfinite(max_power_) || max_power_ <= 0.0) {
    throw std::invalid_argument(
        "power_model: the maximum power max_range^exponent must be positive and finite");
  }
}

double power_model::required_power(double distance) const {
  if (distance <= 0.0) return 0.0;
  return std::pow(distance, exponent_);
}

double power_model::range(double power) const {
  if (power <= 0.0) return 0.0;
  return std::pow(power, 1.0 / exponent_);
}

double power_model::rx_power(double tx_power, double distance) const {
  const double d = distance < min_distance ? min_distance : distance;
  return tx_power / std::pow(d, exponent_);
}

bool power_model::reaches(double tx_power, double distance) const {
  // One-ulp tolerance: a receiver's power estimate tx/(tx/d^n) can
  // round marginally below d^n; physically the link budget is exact.
  return required_power(distance) <= tx_power * (1.0 + 1e-12);
}

std::optional<double> power_model::receive(double tx_power, double distance,
                                           double gain) const {
  const double p = required_power(distance);
  if (!(p / gain <= tx_power * (1.0 + 1e-12))) return std::nullopt;
  // rx_power's clamp: below min_distance p(d) is not the divisor.
  const double loss = distance < min_distance ? std::pow(min_distance, exponent_) : p;
  return tx_power / loss * gain;
}

double power_model::estimate_required_power(double tx_power, double rx_power) const {
  if (rx_power <= 0.0) throw std::invalid_argument("estimate_required_power: rx_power must be positive");
  return tx_power / rx_power;
}

}  // namespace cbtc::radio
