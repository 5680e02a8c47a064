// Channel impairment model.
//
// Section 4 of the paper relaxes the reliable synchronous model:
// "messages may get lost or duplicated". This module decides, per
// transmission, how many copies of a message are delivered and with
// what latency. With default parameters the channel is reliable and
// delivery order is deterministic, recovering the Section 2 model.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace cbtc::radio {

struct channel_params {
  double drop_prob{0.0};       // probability a copy is lost
  double dup_prob{0.0};        // probability a delivered copy is duplicated
  double base_delay{0.01};     // fixed per-hop latency (sim time units)
  double delay_per_unit{0.0};  // propagation delay per distance unit
  double jitter_max{0.0};      // uniform extra delay in [0, jitter_max]

  [[nodiscard]] bool operator==(const channel_params&) const = default;
};

class channel {
 public:
  explicit channel(channel_params params = {}, std::uint64_t seed = 0);

  /// Delivery delays for one receiver at the given distance: empty if
  /// the message is dropped, one entry normally, two if duplicated.
  [[nodiscard]] std::vector<double> sample_deliveries(double distance);

  [[nodiscard]] const channel_params& params() const { return params_; }

  /// Upper bound on a single delivery latency for receivers within
  /// `max_distance`; protocols use this to size response deadlines.
  [[nodiscard]] double max_delay(double max_distance) const;

 private:
  channel_params params_;
  std::mt19937_64 rng_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

}  // namespace cbtc::radio
