#include "radio/channel.h"

#include <stdexcept>

namespace cbtc::radio {

channel::channel(channel_params params, std::uint64_t seed) : params_(params), rng_(seed) {
  if (params.drop_prob < 0.0 || params.drop_prob > 1.0)
    throw std::invalid_argument("channel: drop_prob must be in [0, 1]");
  if (params.dup_prob < 0.0 || params.dup_prob > 1.0)
    throw std::invalid_argument("channel: dup_prob must be in [0, 1]");
  if (params.base_delay < 0.0 || params.delay_per_unit < 0.0 || params.jitter_max < 0.0)
    throw std::invalid_argument("channel: delays must be non-negative");
}

delivery_delays channel::sample_deliveries(double distance) {
  delivery_delays delays;
  if (params_.drop_prob > 0.0 && unit_(rng_) < params_.drop_prob) return delays;

  auto one_delay = [&] {
    double d = params_.base_delay + params_.delay_per_unit * distance;
    if (params_.jitter_max > 0.0) d += unit_(rng_) * params_.jitter_max;
    return d;
  };
  delays.push_back(one_delay());
  if (params_.dup_prob > 0.0 && unit_(rng_) < params_.dup_prob) delays.push_back(one_delay());
  return delays;
}

double channel::max_delay(double max_distance) const {
  return params_.base_delay + params_.delay_per_unit * max_distance + params_.jitter_max;
}

}  // namespace cbtc::radio
