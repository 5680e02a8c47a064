// Convenience driver: run the distributed CBTC protocol over a set of
// node positions and package the outcome like the centralized oracle,
// so tests can compare the two directly and benches can measure
// protocol costs (messages, energy, completion time).
#pragma once

#include <span>
#include <vector>

#include "algo/oracle.h"
#include "geom/vec2.h"
#include "proto/cbtc_agent.h"
#include "radio/channel.h"
#include "radio/direction.h"
#include "radio/power_model.h"
#include "radio/propagation.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace cbtc::proto {

struct protocol_run_config {
  agent_config agent{};
  radio::channel_params channel{};
  double direction_noise{0.0};
  std::uint64_t seed{0};
  /// When true, agents exchange drop notices after finishing so the
  /// symmetric core E^-_alpha can be built (Section 3.2).
  bool send_drop_notices{false};
  /// Hard cap on simulated events (guards against runaway schedules).
  std::size_t max_events{50'000'000};

  [[nodiscard]] bool operator==(const protocol_run_config&) const = default;
};

struct protocol_run_result {
  algo::cbtc_result outcome;           // same shape as the oracle's result
  sim::medium_stats stats{};           // message/energy counters
  sim::time_point completion_time{0};  // when the last agent finished
  std::vector<node_id> drop_senders;   // diagnostic: who sent drop notices
};

/// Runs the full growing phase (plus optional drop-notice round) for
/// every node and returns the collected results. `link` carries the
/// power model plus the per-link propagation; a bare power_model
/// converts implicitly (isotropic, bitwise-identical behaviour).
[[nodiscard]] protocol_run_result run_protocol(std::span<const geom::vec2> positions,
                                               const radio::link_model& link,
                                               const protocol_run_config& cfg);

}  // namespace cbtc::proto
