// Convergecast data plane: periodic per-node sensor readings routed
// hop-by-hop toward a sink over the *current* reconfigured topology.
//
// This is the workload the paper's energy argument is about — the
// reduced topology still has to carry traffic. Each non-sink node
// generates one reading every `period`, enqueues it into a bounded
// FIFO, and a per-node service timer forwards one packet every
// `service_time` (the link-contention model: a radio transmits at most
// one packet per service interval). Forwarding goes through
// medium::unicast at the real power required for the hop, so channel
// delays, loss, and per-node energy accounting are shared with the
// protocol stack. Next-hop tables are shortest-power-path trees rooted
// at the sink, recomputed lazily: topology / liveness / position
// deltas only mark the tables stale (a relaxed atomic flag), and a
// periodic class-0 refresh event rebuilds them off the live
// symmetric-closure view — the incremental pattern the closure_mirror
// already provides.
//
// Determinism contract (see docs/ARCHITECTURE.md): every mutation is
// owned by exactly one event lane. Generation and service timers are
// class-1 events of the owning node; packet receptions are class-2
// events of the receiver; route refreshes are class-0 (serial). All
// per-node counters, queues, and energy ledgers are therefore touched
// only by their owner's events, which the engine executes in the one
// canonical key order at any region count — so every statistic,
// including the floating-point delay and energy folds, is
// bitwise-identical at any region count x thread count. The data
// plane draws no randomness, so it never perturbs the region-count
// gate or the channel RNG.
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "graph/types.h"
#include "sim/medium.h"
#include "sim/simulator.h"

namespace cbtc::sim {

struct convergecast_config {
  node_id sink{0};
  double period{5.0};        // seconds between readings at each node
  double start{0.0};         // traffic plane arms at this instant
  double until{0.0};         // last instant new readings may be generated
  double horizon{0.0};       // end of run (in-flight packets may still land)
  double service_time{0.05}; // one transmission per node per interval
  double route_refresh{1.0}; // cadence of the stale-table rebuild
  std::size_t queue_capacity{8};
};

/// Convergecast data-plane outcome of one dynamic run: raw
/// conservation counters plus the derived throughput / delivery /
/// energy-spread metrics. For a channel that never duplicates,
/// generated = delivered + queue_drops + no_route_drops + dead_drops +
/// lost_in_air + queued_at_end (asserted in tests).
struct traffic_report {
  bool enabled{false};
  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t forwards{0};        ///< transmissions, origin sends included
  std::uint64_t queue_drops{0};     ///< bounded-FIFO overflow
  std::uint64_t no_route_drops{0};  ///< no path to the sink at service time
  std::uint64_t dead_drops{0};      ///< queue flushed because the node crashed
  std::uint64_t lost_in_air{0};     ///< sent but never received (range, channel, in flight)
  std::uint64_t queued_at_end{0};
  std::uint64_t route_refreshes{0};
  std::uint64_t queue_peak{0};      ///< deepest queue seen at any node
  double delivery_ratio{0.0};       ///< delivered / generated
  double throughput{0.0};           ///< delivered per sim-time unit after `start`
  double avg_delay{0.0};            ///< mean source-to-sink latency
  double forwarding_energy{0.0};    ///< traffic-only energy, summed over all nodes
  double energy_mean{0.0};          ///< per non-sink node
  double energy_max{0.0};
  double energy_stddev{0.0};        ///< the forwarding-balance metric

  [[nodiscard]] bool operator==(const traffic_report&) const = default;
};

class convergecast {
 public:
  /// Enumerates the current live neighbors of a node (nothing when the
  /// node is down). Called only from class-0 refresh events, so a
  /// closure_mirror / live index view is safe to read.
  using neighbor_fn = std::function<void(node_id, const std::function<void(node_id)>&)>;
  /// Power node `tx` must spend to reach node `rx` right now.
  using cost_fn = std::function<double(node_id tx, node_id rx)>;

  /// The medium must already have every node registered and the
  /// protocol handlers installed: start() wraps them, passing foreign
  /// payloads through untouched.
  convergecast(medium& m, convergecast_config cfg, neighbor_fn neighbors, cost_fn cost);

  /// Wraps handlers and schedules the generation timers and the first
  /// route refresh. Call before simulator::run_until.
  void start();

  /// Thread-safe: marks the next-hop tables stale. Chain this into
  /// topology / liveness / move hooks.
  void mark_routes_stale() { dirty_.store(true, std::memory_order_relaxed); }

  /// Folds the per-node ledgers into the run's report in node order;
  /// throughput is over [start, horizon]. Call once after the run
  /// completes.
  [[nodiscard]] traffic_report finish() const;

  [[nodiscard]] double energy(node_id u) const { return energy_[u]; }

  /// The payload carried through medium::unicast.
  struct packet {
    node_id origin{0};
    time_point created{0.0};
  };

 private:
  void refresh_routes();
  void on_generate(node_id u);
  void ensure_service(node_id u);
  void on_service(node_id u);
  void on_receive(node_id u, const packet& p);
  void enqueue(node_id u, const packet& p);

  medium& medium_;
  convergecast_config cfg_;
  neighbor_fn neighbors_;
  cost_fn cost_;
  std::size_t n_;

  std::atomic<bool> dirty_{true};
  std::vector<node_id> next_hop_;   // invalid_node = unrouted
  std::vector<double> hop_power_;   // cost of the hop to next_hop_
  std::vector<double> dist_;        // refresh scratch

  // Per-node state, touched only by the owner's events (uint8_t, not
  // vector<bool>: adjacent bits would share bytes across lanes).
  std::vector<std::deque<packet>> queue_;
  std::vector<std::uint8_t> service_pending_;
  std::vector<std::uint64_t> generated_;
  std::vector<std::uint64_t> queue_drops_;
  std::vector<std::uint64_t> no_route_drops_;
  std::vector<std::uint64_t> dead_drops_;
  std::vector<std::uint64_t> forwards_;
  std::vector<std::uint64_t> sent_;
  std::vector<std::uint64_t> arrived_;
  std::vector<std::uint64_t> queue_peak_;
  std::vector<double> energy_;

  // Written only from the sink's delivery lane / class-0 events.
  std::uint64_t delivered_{0};
  double delay_sum_{0.0};
  std::uint64_t route_refreshes_{0};
};

}  // namespace cbtc::sim
