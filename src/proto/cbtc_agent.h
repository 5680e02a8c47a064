// The distributed CBTC(alpha) agent: one instance per node.
//
// Implements the growing phase of Figure 1 as an event-driven state
// machine on the simulated medium:
//
//   1. broadcast ("Hello", p) with p = Increase(previous p);
//   2. collect Acks until a response deadline expires;
//   3. if an alpha-gap remains and p < P, go to 1; otherwise stop.
//
// The agent also answers other nodes' Hellos with Acks (computing the
// required response power from the received power), tracks the nodes
// it acked (the inbound side of E_alpha), and — when asymmetric edge
// removal is enabled — sends drop notices after finishing (Section 3.2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "algo/oracle.h"
#include "algo/params.h"
#include "proto/messages.h"
#include "sim/medium.h"

namespace cbtc::proto {

struct agent_config {
  algo::cbtc_params params{};
  /// Time the agent waits for Acks after each Hello; must exceed one
  /// round trip of the channel's worst-case latency.
  double round_timeout{0.5};
  /// Multiplier on the estimated required power for Acks and drop
  /// notices; >1 adds headroom against estimation noise.
  double reply_margin{1.0};
  /// Number of Hello re-broadcasts per power level (lossy channels).
  std::uint32_t retries_per_level{1};

  [[nodiscard]] bool operator==(const agent_config&) const = default;
};

/// What the agent knows about a discovered neighbor.
struct discovered_neighbor {
  double required_power{0.0};   // estimated p(d(u,v))
  double direction{0.0};        // angle of arrival
  double discovery_power{0.0};  // power tag: Hello power when first acked
  std::uint32_t level{0};       // growth round of first discovery
};

class cbtc_agent {
 public:
  cbtc_agent(sim::medium& m, node_id self, const agent_config& cfg);

  /// Begins the growing phase; `on_done` fires once (when coverage is
  /// reached or maximum power exhausted).
  void start(std::function<void()> on_done = {});

  /// Feeds a received message into the agent (wire up as the node's
  /// rx handler, or call from an owning composite agent).
  void handle(const sim::rx_info& rx, const message& msg);

  /// After finishing: unicasts a drop notice to every node this agent
  /// acked that it did not itself discover (enables E^-_alpha).
  void send_drop_notices();

  // -- results ------------------------------------------------------
  [[nodiscard]] bool done() const { return phase_ == phase::done; }
  [[nodiscard]] bool boundary() const { return boundary_; }
  [[nodiscard]] double final_power() const { return power_; }
  [[nodiscard]] const std::map<node_id, discovered_neighbor>& neighbors() const {
    return neighbors_;
  }
  /// Nodes whose Hellos this agent acked, with the power needed to
  /// reach them (the inbound side used for E_alpha radii).
  [[nodiscard]] const std::map<node_id, double>& acked() const { return acked_; }
  /// Inbound nodes that asked to be dropped (Section 3.2).
  [[nodiscard]] const std::vector<node_id>& dropped() const { return dropped_; }
  /// Hello broadcasts performed.
  [[nodiscard]] std::uint32_t rounds() const { return round_; }
  /// Power tags of the Hello levels used (for shrink-back/reconfig).
  [[nodiscard]] const std::vector<double>& level_powers() const { return level_powers_; }

  /// Converts the discovery state into the oracle's per-node record
  /// (distances recovered from required powers via the power model).
  [[nodiscard]] algo::node_result to_node_result() const;

  // -- reconfiguration hooks (Section 4) ----------------------------
  /// Drops `v` from the neighbor table (leave_u(v)).
  void forget(node_id v);
  /// Inserts/updates `v` (join_u(v)); the discovery_power acts as the
  /// shrink-back tag for later pruning.
  void learn(node_id v, const discovered_neighbor& info);
  /// Updates the stored bearing of `v` (aChange_u(v)); returns false if
  /// `v` is unknown.
  bool update_direction(node_id v, double direction);
  /// True if the current directions leave an alpha-gap.
  [[nodiscard]] bool has_gap() const;
  /// p(rad^-_u): largest required power over current neighbors.
  [[nodiscard]] double coverage_power() const;
  /// Shrink-back on the live table: removes neighbors with the largest
  /// discovery tags while cover_alpha is unchanged (Sections 3.1, 4).
  /// Returns the number of neighbors removed.
  std::size_t prune_shrink_back();
  /// Re-enters the growing phase from `start_power` (the paper re-runs
  /// CBTC with p0 = p(rad^-_u) after a leave/aChange opened a gap).
  void regrow(double start_power, std::function<void()> on_done = {});

  /// Fires on every *membership* change of the neighbor table:
  /// (v, true) when v enters, (v, false) when v leaves. Direction or
  /// power updates to an existing entry do not fire. This is the delta
  /// stream that lets the dynamic engine mirror the closure topology
  /// incrementally (graph::closure_mirror) instead of re-reading every
  /// table per connectivity evaluation.
  using table_observer = std::function<void(node_id, bool)>;
  void set_table_observer(table_observer obs) { table_observer_ = std::move(obs); }

 private:
  void table_changed(node_id v, bool added) {
    if (table_observer_) table_observer_(v, added);
  }

  enum class phase : std::uint8_t { idle, growing, done };

  void next_round();
  void evaluate_round(std::uint32_t round);
  [[nodiscard]] std::vector<double> known_directions() const;

  sim::medium& medium_;
  node_id self_;
  agent_config cfg_;

  phase phase_{phase::idle};
  double power_{0.0};  // current (last broadcast) Hello power
  std::uint32_t round_{0};
  std::vector<double> level_powers_;
  bool boundary_{false};
  std::map<node_id, discovered_neighbor> neighbors_;
  std::map<node_id, double> acked_;
  std::vector<node_id> dropped_;
  std::function<void()> on_done_;
  table_observer table_observer_;
};

}  // namespace cbtc::proto
