// Unified results for the cbtc::api façade.
//
// `run_report` is everything one scenario instance produced: the final
// topology, per-node transmit powers, the growth outcome (for CBTC
// methods), the paper's metrics (degree / radius / power / stretch /
// interference), invariant checks, and protocol costs when the
// distributed method ran.
//
// `batch_report` reduces many run_reports into exp::summary aggregates.
// Reduction is streamed: seeds are accumulated into fixed-size seed
// blocks (in seed order within a block) and the block partials are
// merged in block order, so aggregates are bitwise deterministic no
// matter how many threads produced the runs — without ever holding
// every run_report alive.
//
// Each batch struct has one field table, `for_each_field`, beside it;
// merge, the wire codec (api/wire.cpp) and the CLI sweep tables are
// derived from it. A new aggregate is a member, a table line and an
// `accumulate` line.
//
// `dynamic_report` / `dynamic_batch_report` are the equivalents for
// dynamic (churn / mobility) simulations driven by a sim_spec.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string_view>
#include <type_traits>
#include <vector>

#include "algo/analysis.h"
#include "algo/oracle.h"
#include "exp/stats.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "sim/medium.h"

namespace cbtc::api {

/// Outcome and metrics of one scenario instance.
struct run_report {
  std::uint64_t seed{0};
  std::size_t nodes{0};

  /// The final (symmetric) topology.
  graph::undirected_graph topology;
  /// Per-node transmit power p(rad_u) needed to sustain `topology`
  /// (nominal P for the max-power baseline; isolated nodes pay p(R)).
  std::vector<double> node_powers;

  /// Growth outcome (after shrink-back); populated for the oracle and
  /// protocol methods only — check `has_growth`.
  algo::cbtc_result growth;
  bool has_growth{false};

  // -- metrics (always computed) ------------------------------------
  std::size_t edges{0};
  std::size_t max_power_edges{0};  ///< edges of G_R, for sparsity context
  double avg_degree{0.0};
  double avg_radius{0.0};
  double max_radius{0.0};
  double avg_power{0.0};
  std::size_t boundary_nodes{0};    ///< CBTC methods only (0 otherwise)
  std::size_t redundant_edges{0};   ///< classified by pairwise removal
  std::size_t removed_edges{0};     ///< actually removed by pairwise removal
  algo::invariant_report invariants;

  // -- optional metrics (see metric_options) ------------------------
  double power_stretch{1.0};      ///< mean over sampled pairs
  double power_stretch_max{1.0};  ///< worst sampled pair
  double hop_stretch{1.0};
  double hop_stretch_max{1.0};
  double interference_mean{0.0};
  std::size_t interference_max{0};
  std::size_t cut_vertices{0};

  // -- protocol costs (method == protocol only) ---------------------
  bool has_protocol_stats{false};
  sim::medium_stats protocol_stats{};
  double completion_time{0.0};

  [[nodiscard]] bool connectivity_preserved() const {
    return invariants.connectivity_preserved;
  }
};

/// Aggregates over a batch of runs (one summary per scalar metric).
struct batch_report {
  std::size_t runs{0};
  std::size_t connectivity_failures{0};

  exp::summary edges;
  exp::summary degree;
  exp::summary radius;
  exp::summary max_radius;
  exp::summary tx_power;
  exp::summary boundary;
  exp::summary power_stretch;
  exp::summary power_stretch_max;
  exp::summary hop_stretch;
  exp::summary hop_stretch_max;
  exp::summary interference;
  exp::summary cut_vertices;
  exp::summary removed_edges;

  bool has_protocol_stats{false};
  exp::summary messages;    ///< broadcasts + unicasts per run
  exp::summary deliveries;
  exp::summary tx_energy;
  exp::summary completion_time;

  [[nodiscard]] double preserved_fraction() const {
    return runs == 0 ? 1.0
                     : static_cast<double>(runs - connectivity_failures) /
                           static_cast<double>(runs);
  }

  /// Folds one run into the aggregates (streaming reduction step).
  void accumulate(const run_report& r);

  [[nodiscard]] bool operator==(const batch_report&) const = default;
};

/// The field table of batch_report: calls `f(name, r.member...)` for
/// every member, once, in declaration order, under its wire name, with
/// the same member of every report passed (two for merge, one for the
/// codec and the CLI tables).
template <class F, class... R>
  requires(std::same_as<std::remove_const_t<R>, batch_report> && ...)
void for_each_field(F&& f, R&... r) {
  f("runs", r.runs...);
  f("connectivity_failures", r.connectivity_failures...);
  f("edges", r.edges...);
  f("degree", r.degree...);
  f("radius", r.radius...);
  f("max_radius", r.max_radius...);
  f("tx_power", r.tx_power...);
  f("boundary", r.boundary...);
  f("power_stretch", r.power_stretch...);
  f("power_stretch_max", r.power_stretch_max...);
  f("hop_stretch", r.hop_stretch...);
  f("hop_stretch_max", r.hop_stretch_max...);
  f("interference", r.interference...);
  f("cut_vertices", r.cut_vertices...);
  f("removed_edges", r.removed_edges...);
  f("has_protocol_stats", r.has_protocol_stats...);
  f("messages", r.messages...);
  f("deliveries", r.deliveries...);
  f("tx_energy", r.tx_energy...);
  f("completion_time", r.completion_time...);
}

/// Appends partial `from` to `into` through its field table; the
/// member type is the kind: an integer count adds, a bool flag ORs,
/// an exp::summary merges. Callers merge partials in seed-block order
/// for determinism.
template <class Batch>
void merge(Batch& into, const Batch& from) {
  for_each_field(
      [](std::string_view, auto& a, const auto& b) {
        using T = std::remove_cvref_t<decltype(a)>;
        if constexpr (std::is_same_v<T, bool>) {
          a = a || b;
        } else if constexpr (std::is_integral_v<T>) {
          a += b;
        } else {
          a.merge(b);
        }
      },
      into, from);
}

/// Reduces per-seed reports (in the order given — callers pass seed
/// order for determinism) into aggregate statistics.
[[nodiscard]] batch_report reduce(std::span<const run_report> reports);

// ---- dynamic simulation reports ------------------------------------

/// One metric sample of a dynamic run, taken at sim time `t`.
struct dynamic_sample {
  double t{0.0};
  std::size_t live_nodes{0};
  std::size_t edges{0};            ///< live-topology edges
  double avg_degree{0.0};
  double avg_radius{0.0};
  /// Live topology preserves the connectivity of the survivors' G_R.
  bool connectivity_ok{false};
  /// The survivors' G_R itself is one component (no unfixable split).
  bool field_connected{true};

  [[nodiscard]] bool operator==(const dynamic_sample&) const = default;
};

/// Convergecast data-plane outcome of one dynamic run (sim/traffic.h):
/// raw conservation counters plus the derived throughput / delivery /
/// energy-spread metrics. For a channel that never duplicates,
/// generated = delivered + queue_drops + no_route_drops + dead_drops +
/// lost_in_air + queued_at_end (asserted in tests).
struct traffic_report {
  bool enabled{false};
  std::uint64_t generated{0};
  std::uint64_t delivered{0};
  std::uint64_t forwards{0};        ///< transmissions, origin sends included
  std::uint64_t queue_drops{0};
  std::uint64_t no_route_drops{0};
  std::uint64_t dead_drops{0};
  std::uint64_t lost_in_air{0};
  std::uint64_t queued_at_end{0};
  std::uint64_t route_refreshes{0};
  std::uint64_t queue_peak{0};      ///< deepest queue seen at any node
  double delivery_ratio{0.0};       ///< delivered / generated
  double throughput{0.0};           ///< delivered per sim-time unit
  double avg_delay{0.0};            ///< mean source-to-sink latency
  double forwarding_energy{0.0};    ///< traffic-only energy, summed
  double energy_mean{0.0};          ///< per non-sink node
  double energy_max{0.0};
  double energy_stddev{0.0};        ///< the forwarding-balance metric

  [[nodiscard]] bool operator==(const traffic_report&) const = default;
};

/// Outcome of one dynamic (churn / mobility) simulation instance.
struct dynamic_report {
  std::uint64_t seed{0};
  std::size_t nodes{0};

  // -- initial topology (at sim_spec::settle) -----------------------
  bool initial_connectivity_ok{false};
  std::size_t initial_edges{0};

  // -- final state (at the horizon) ---------------------------------
  bool final_connectivity_ok{false};
  std::size_t live_nodes{0};
  graph::undirected_graph final_topology;  ///< live nodes + live edges
  std::vector<geom::vec2> final_positions;
  std::vector<bool> up;                    ///< liveness per node

  // -- reconfiguration event counters (summed over agents) ----------
  std::uint64_t joins{0};
  std::uint64_t leaves{0};
  std::uint64_t achanges{0};
  std::uint64_t regrows{0};
  std::uint64_t prunes{0};
  std::uint64_t beacons{0};

  // -- channel costs over the whole run -----------------------------
  sim::medium_stats channel{};

  // -- topology-repair latency --------------------------------------
  // Connectivity (live topology vs the survivors' G_R) is re-evaluated
  // at every event that touched the live-neighbor index (mobility
  // tick, crash, restart) or an agent's neighbor table, so disruption
  // windows carry event timestamps, not sample-cadence timestamps.
  std::size_t disruptions{0};        ///< repaired disruptions
  std::size_t unrepaired{0};         ///< still broken at the horizon
  double repair_latency_mean{0.0};   ///< over repaired disruptions
  double repair_latency_max{0.0};

  // -- field (G_R) disruption windows -------------------------------
  // From the event-driven union-find connectivity monitor on the
  // live-neighbor index: exact times the survivors' max-power graph
  // split and healed.
  std::size_t field_disruptions{0};  ///< G_R split episodes that healed
  double field_downtime{0.0};        ///< total time the live field was split

  // -- lifetime to partition ----------------------------------------
  /// First instant the survivors' G_R splits (exact, event-driven;
  /// horizon if it never splits — check `partitioned`).
  double time_to_partition{0.0};
  bool partitioned{false};

  /// Convergecast data-plane outcome (all-zero unless enabled).
  traffic_report traffic{};

  std::vector<dynamic_sample> samples;

  [[nodiscard]] bool operator==(const dynamic_report&) const = default;
};

/// Aggregates over a batch of dynamic runs.
struct dynamic_batch_report {
  std::size_t runs{0};
  std::size_t initial_connectivity_failures{0};
  std::size_t final_connectivity_failures{0};
  std::size_t partitioned_runs{0};
  std::size_t unrepaired_disruptions{0};

  exp::summary broadcasts;
  exp::summary unicasts;
  exp::summary deliveries;
  exp::summary drops;
  exp::summary tx_energy;
  exp::summary joins;
  exp::summary leaves;
  exp::summary achanges;
  exp::summary regrows;
  exp::summary prunes;
  exp::summary beacons;
  exp::summary disruptions;
  exp::summary repair_latency;      ///< per-run means
  exp::summary repair_latency_max;  ///< per-run maxima
  exp::summary field_disruptions;
  exp::summary field_downtime;
  exp::summary time_to_partition;
  exp::summary final_edges;
  exp::summary final_degree;
  exp::summary final_radius;
  exp::summary live_nodes;

  /// Convergecast data-plane aggregates; populated only over runs with
  /// traffic enabled (`traffic_runs` counts them).
  std::size_t traffic_runs{0};
  exp::summary traffic_generated;
  exp::summary traffic_delivered;
  exp::summary traffic_delivery_ratio;
  exp::summary traffic_throughput;
  exp::summary traffic_delay;
  exp::summary traffic_energy;
  exp::summary traffic_energy_spread;  ///< per-run energy stddev
  exp::summary traffic_drops;          ///< queue + no-route + dead drops
  exp::summary traffic_queue_peak;

  [[nodiscard]] double final_preserved_fraction() const {
    return runs == 0 ? 1.0
                     : static_cast<double>(runs - final_connectivity_failures) /
                           static_cast<double>(runs);
  }

  void accumulate(const dynamic_report& r);

  [[nodiscard]] bool operator==(const dynamic_batch_report&) const = default;
};

/// The field table of dynamic_batch_report (see batch_report's).
template <class F, class... R>
  requires(std::same_as<std::remove_const_t<R>, dynamic_batch_report> && ...)
void for_each_field(F&& f, R&... r) {
  f("runs", r.runs...);
  f("initial_connectivity_failures", r.initial_connectivity_failures...);
  f("final_connectivity_failures", r.final_connectivity_failures...);
  f("partitioned_runs", r.partitioned_runs...);
  f("unrepaired_disruptions", r.unrepaired_disruptions...);
  f("broadcasts", r.broadcasts...);
  f("unicasts", r.unicasts...);
  f("deliveries", r.deliveries...);
  f("drops", r.drops...);
  f("tx_energy", r.tx_energy...);
  f("joins", r.joins...);
  f("leaves", r.leaves...);
  f("achanges", r.achanges...);
  f("regrows", r.regrows...);
  f("prunes", r.prunes...);
  f("beacons", r.beacons...);
  f("disruptions", r.disruptions...);
  f("repair_latency", r.repair_latency...);
  f("repair_latency_max", r.repair_latency_max...);
  f("field_disruptions", r.field_disruptions...);
  f("field_downtime", r.field_downtime...);
  f("time_to_partition", r.time_to_partition...);
  f("final_edges", r.final_edges...);
  f("final_degree", r.final_degree...);
  f("final_radius", r.final_radius...);
  f("live_nodes", r.live_nodes...);
  f("traffic_runs", r.traffic_runs...);
  f("traffic_generated", r.traffic_generated...);
  f("traffic_delivered", r.traffic_delivered...);
  f("traffic_delivery_ratio", r.traffic_delivery_ratio...);
  f("traffic_throughput", r.traffic_throughput...);
  f("traffic_delay", r.traffic_delay...);
  f("traffic_energy", r.traffic_energy...);
  f("traffic_energy_spread", r.traffic_energy_spread...);
  f("traffic_drops", r.traffic_drops...);
  f("traffic_queue_peak", r.traffic_queue_peak...);
}

/// Reduces dynamic reports (in the order given) into aggregates.
[[nodiscard]] dynamic_batch_report reduce(std::span<const dynamic_report> reports);

}  // namespace cbtc::api
