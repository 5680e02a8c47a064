// Dynamic-simulation descriptions for the cbtc::api façade.
//
// A `sim_spec` makes churn and mobility a first-class workload axis: it
// describes *what happens after deployment* — how nodes move, when they
// crash or restart, how the Section 4 reconfiguration protocol (NDP
// beaconing + the join/leave/aChange rules) is tuned, how long the
// simulation runs, and how often metrics are sampled. Composed with a
// `scenario_spec` (which still owns deployment, radio, CBTC parameters,
// and the protocol substrate), a sim_spec plus a seed fully determines
// a dynamic run, so dynamic batches are reproducible by construction.
//
// `lifetime_spec` describes the battery-attrition experiment of the
// paper's Discussion (Section 6): every node pays its beacon power each
// round plus relay costs for routed flows until batteries empty and the
// surviving field partitions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace cbtc::api {

/// How nodes move during the dynamic phase.
enum class mobility_kind {
  none,             ///< static deployment (failures only)
  random_waypoint,  ///< walk to random targets at random speeds
  bouncing,         ///< constant velocity, elastic boundary reflection
};

struct mobility_spec {
  mobility_kind kind{mobility_kind::none};
  double min_speed{1.0};  ///< distance units per time unit
  double max_speed{10.0};
  double pause{0.0};      ///< dwell time at each waypoint
  double tick{0.5};       ///< position update period
  /// Absolute sim time motion begins (0 = as soon as the run starts).
  double start{0.0};
  /// Absolute sim time motion ends (0 = move until the horizon).
  double until{0.0};

  [[nodiscard]] bool operator==(const mobility_spec&) const = default;
};

/// One scheduled crash or restart.
struct failure_event {
  graph::node_id node{0};
  double time{0.0};
  bool restart{false};  ///< false = crash, true = restart

  [[nodiscard]] bool operator==(const failure_event&) const = default;
};

struct failure_spec {
  /// Crash `random_crashes` distinct random nodes at uniform times in
  /// [window_begin, window_end] (victims drawn from the run seed).
  std::size_t random_crashes{0};
  double window_begin{0.0};
  double window_end{0.0};
  /// Explicit schedule, applied in addition to the random crashes.
  std::vector<failure_event> events;

  [[nodiscard]] bool empty() const { return random_crashes == 0 && events.empty(); }

  [[nodiscard]] bool operator==(const failure_spec&) const = default;
};

/// Neighbor-discovery (beaconing) parameters — the api-level mirror of
/// proto::ndp_config, so callers never touch proto:: directly.
struct beacon_spec {
  double interval{1.0};  ///< beacon period
  /// Beacons missed before leave_u(v) fires (tau = miss_limit * interval).
  std::uint32_t miss_limit{3};
  /// Minimum bearing change (radians) that triggers aChange_u(v).
  double achange_threshold{0.05};
  /// If true, joins/aChanges trigger the shrink-back pruning pass.
  bool shrink_back{true};

  /// tau: how long a silent neighbor stays in the table.
  [[nodiscard]] double failure_detection_time() const {
    return static_cast<double>(miss_limit) * interval;
  }

  [[nodiscard]] bool operator==(const beacon_spec&) const = default;
};

/// Spatial partitioning of the dynamic event engine (conservative
/// PDES, sim/partition.h). `regions` requests a region count (rounded
/// down to a g x g grid over the deployment field); 0 picks
/// automatically — serial below `min_nodes`, then one region per
/// ~4096 nodes (clamped to [4, 64]). Reports are bitwise-identical at
/// every region count and thread count; runs whose channel or
/// direction estimator draws randomness per delivery (drop/dup/jitter
/// or direction noise, none of the registry presets) fall back to the
/// single-queue reference, as does a channel without a positive base
/// delay (the lookahead).
struct partition_spec {
  std::uint32_t regions{0};     ///< 0 = auto, 1 = force serial reference
  std::size_t min_nodes{4096};  ///< auto mode engages at this node count

  [[nodiscard]] bool operator==(const partition_spec&) const = default;
};

/// Convergecast data plane over the reconfigured topology
/// (sim/traffic.h): every non-sink node generates one sensor reading
/// per `period` and readings flow hop-by-hop toward the sink along
/// shortest-power-path next-hop tables maintained off the live
/// symmetric closure. `period == 0` disables the plane entirely (the
/// default — old scenarios are unaffected). Times are absolute sim
/// times; 0 means "resolve from the sim_spec" (start defaults to
/// `settle`, until to `horizon`). Periods and service times are
/// clamped up to the channel base delay so the partitioned engine's
/// lookahead always holds.
struct traffic_spec {
  double period{0.0};          ///< reading period per node; 0 = traffic off
  graph::node_id sink{0};      ///< collection point (clamped into [0, n))
  double start{0.0};           ///< 0 = settle
  double until{0.0};           ///< 0 = horizon (generation stop time)
  double service_time{0.05};   ///< one transmission per node per interval
  double route_refresh{1.0};   ///< stale next-hop table rebuild cadence
  std::size_t queue_capacity{8};

  [[nodiscard]] bool enabled() const { return period > 0.0; }

  [[nodiscard]] bool operator==(const traffic_spec&) const = default;
};

/// Most periods of one self-rescheduling cadence (sample_every, the
/// beacon interval, the mobility tick, the traffic period and route
/// refresh) that a parsed sim block may fit into its horizon: a work
/// budget, so no scenario file or batch request schedules unbounded
/// work.
inline constexpr std::size_t max_periods_per_run = 1'000'000;

/// A complete dynamic simulation: what happens between t = 0 and the
/// horizon. The initial growing phase runs first; metric sampling
/// starts at `settle` (by which the initial topology should be built).
struct sim_spec {
  double horizon{120.0};      ///< total simulated time
  double settle{15.0};        ///< initial topology settle time
  double sample_every{5.0};   ///< metric sample cadence after settle
  beacon_spec beacons{};
  mobility_spec mobility{};
  failure_spec failures{};
  /// Spatially partitioned parallel event engine (see partition_spec).
  partition_spec partition{};
  /// Convergecast data plane (off unless traffic.period > 0).
  traffic_spec traffic{};

  [[nodiscard]] bool operator==(const sim_spec&) const = default;
};

/// Topology-adaptation strategy for lifetime runs — how routes react
/// to battery depletion (Chu & Sethu, arXiv:1309.3284 / 1309.3260).
enum class lifetime_policy {
  /// Minimum-power routes over the CBTC topology, energy-oblivious
  /// (the paper's baseline; bitwise-identical to the historical path).
  plain_cbtc,
  /// Routes weighted by the transmitter's inverse residual-energy
  /// fraction, still over the CBTC topology: depleted relays are
  /// bypassed when an alternative exists.
  energy_balanced,
  /// Neighbors cooperatively spend more transmit power to route around
  /// depleted relays: quadratic residual-energy weighting over the
  /// full live G_R, so longer (higher-power) links substitute for
  /// dying bottleneck nodes.
  cooperative_adaptation,
};

/// Battery-attrition lifetime experiment (round-based, no event sim):
/// each round every live node pays its beacon power, `flows` random
/// source->sink messages drain p(d) per transmitting relay, and nodes
/// die when their battery empties.
struct lifetime_spec {
  /// Battery capacity in units of the maximum transmit power (a budget
  /// of `battery_rounds` max-power broadcasts).
  double battery_rounds{40.0};
  std::size_t flows{30};        ///< routed flows per round
  std::size_t max_rounds{20000};
  /// Route-adaptation strategy (see lifetime_policy).
  lifetime_policy policy{lifetime_policy::plain_cbtc};
  /// Replace the random flows with a convergecast round: every live
  /// node sends one reading to `sink` along the policy's routing tree.
  /// The sink is mains-powered (pays neither beacons nor relaying).
  bool convergecast{false};
  graph::node_id sink{0};

  [[nodiscard]] bool operator==(const lifetime_spec&) const = default;
};

}  // namespace cbtc::api
