// The shared wireless medium.
//
// Implements the paper's three communication primitives (Section 2):
//   bcast(u, p, m) — delivered to every v with p(d(u,v)) <= p,
//   send(u, p, m, v) — point-to-point, delivered if p(d(u,v)) <= p,
//   recv(u, m, v) — the receiver learns the reception power p' and can
//                   estimate p(d(u,v)) from (p, p'), plus the direction
//                   of arrival (the Angle-of-Arrival assumption).
//
// Crash failures (Section 4) are modeled by marking nodes down: a down
// node neither transmits nor receives. Message loss / duplication /
// latency come from the radio::channel. Positions may change between
// events (mobility); range membership is evaluated at transmit time.
//
// The medium schedules through sim::simulator with typed events
// (timers via schedule_self, deliveries via schedule_delivery with
// per-sender transmission counters), so the same protocol stack runs
// at any region count. Transmit / delivery counters are relaxed
// atomics — their sums are independent of how lanes interleave — and
// stats() folds per-node energy in node order, so reported totals are
// bitwise-identical at any region and thread count.
//
// Cost of a receiver. Each candidate costs one link gain and one
// p(d): the gain comes from the broadcast directory when it carries
// gains (the dynamic engine's live index caches them), otherwise from
// link().gain (1 without evaluating anything when isotropic), and
// power_model::receive decides decodability and the reception power
// from the same p(d). Each transmission stores its header, its payload
// and the reception power and bearing of every scheduled copy once, in
// a record the medium owns. A delivery's action is a trivially copyable
// 16-byte {record, copy, receiver} closure, small enough for
// std::function's local buffer (libstdc++ keeps up to 16 bytes there),
// and the engine keeps it in a slab slot that no queue step moves
// (sim/simulator.h). Records are
// recycled by their sender once their atomic count of pending copies
// drops to zero. A sender's events run in one lane per instant at any
// region count, so a record has a single writer; its readers are the
// deliveries, which finish with the record before releasing it. A warm
// medium therefore allocates nothing per delivery
// (tests/sim_alloc_test.cpp). A payload lives as long as its record:
// until the sender's next transmission reuses it.
#pragma once

#include <any>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/types.h"
#include "radio/channel.h"
#include "radio/direction.h"
#include "radio/power_model.h"
#include "radio/propagation.h"
#include "sim/simulator.h"

namespace cbtc::sim {

using graph::node_id;

/// Physical-layer metadata handed to a receiver along with a message.
struct rx_info {
  node_id sender{graph::invalid_node};
  double tx_power{0.0};    // advertised in every message header (paper, Fig. 1)
  double rx_power{0.0};    // measured reception power
  double direction{0.0};   // angle of arrival at the receiver, [0, 2*pi)
  time_point time{0.0};    // delivery time
};

/// Per-node message handler.
using rx_handler = std::function<void(const rx_info&, const std::any& payload)>;

struct medium_stats {
  std::uint64_t broadcasts{0};
  std::uint64_t unicasts{0};
  std::uint64_t deliveries{0};
  std::uint64_t drops{0};       // channel losses
  double tx_energy{0.0};        // sum of tx_power over transmissions

  [[nodiscard]] bool operator==(const medium_stats&) const = default;
};

class medium {
 public:
  /// `lm` carries the power model plus the per-link propagation; a
  /// bare radio::power_model converts implicitly (isotropic gains,
  /// bitwise-identical delivery decisions).
  medium(simulator& sim, radio::link_model lm, radio::channel ch = radio::channel{},
         radio::direction_estimator de = radio::direction_estimator{});
  ~medium();

  /// Registers a node; returns its id (dense, starting at 0).
  node_id add_node(const geom::vec2& position, rx_handler handler);

  [[nodiscard]] std::size_t num_nodes() const { return positions_.size(); }
  [[nodiscard]] const geom::vec2& position(node_id u) const { return positions_[u]; }
  [[nodiscard]] const std::vector<geom::vec2>& positions() const { return positions_; }
  void set_position(node_id u, const geom::vec2& p) {
    positions_[u] = p;
    if (move_hook_) move_hook_(u, p);
  }
  void set_handler(node_id u, rx_handler handler) { handlers_[u] = std::move(handler); }
  /// Current handler of `u` — lets layered protocols (e.g. the traffic
  /// data plane) wrap an installed handler instead of replacing it.
  [[nodiscard]] const rx_handler& handler(node_id u) const { return handlers_[u]; }

  /// Observation hooks for engines that mirror medium state (e.g. an
  /// incremental live-neighbor index): `move` fires after every
  /// position update, `liveness` after every actual up/down flip.
  using move_hook = std::function<void(node_id, const geom::vec2&)>;
  using liveness_hook = std::function<void(node_id, bool)>;
  void set_move_hook(move_hook h) { move_hook_ = std::move(h); }
  void set_liveness_hook(liveness_hook h) { liveness_hook_ = std::move(h); }

  /// A broadcast directory's answer for one sender: an ascending-id
  /// superset of every node any transmit power can reach, and either
  /// no gains or, index for index, gain(sender, v, position(sender),
  /// position(v)) exactly as link().gain returns it.
  struct neighborhood {
    std::span<const node_id> nodes;
    std::span<const double> gains;
  };

  /// Optional broadcast routing directory (e.g. live_neighbor_index's
  /// neighbors and neighbor_gains — the live max-power neighborhood).
  /// The per-candidate range check still applies, so deliveries are
  /// bitwise-identical to the full O(n) scan, just O(degree). Cleared
  /// with an empty function.
  using broadcast_directory = std::function<neighborhood(node_id)>;
  void set_broadcast_directory(broadcast_directory d) { directory_ = std::move(d); }

  /// bcast(u, p, m): schedules delivery to every live node in range.
  void broadcast(node_id from, double tx_power, std::any payload);

  /// send(u, p, m, v): schedules point-to-point delivery (silently
  /// undeliverable if v is out of range — the radio cannot know).
  void unicast(node_id from, node_id to, double tx_power, std::any payload);

  /// Schedules a class-1 timer event owned by `owner` — the one safe
  /// way for protocol code to self-schedule at any region count.
  void schedule_self(node_id owner, time_point delay, simulator::action fn) {
    sim_.schedule_node(sim_.now() + delay, owner, std::move(fn));
  }

  /// Crash / recover (Section 4 failure model).
  void crash(node_id u) {
    const bool was_up = up_[u];
    up_[u] = false;
    if (was_up && liveness_hook_) liveness_hook_(u, false);
  }
  void restart(node_id u) {
    const bool was_up = up_[u];
    up_[u] = true;
    if (!was_up && liveness_hook_) liveness_hook_(u, true);
  }
  [[nodiscard]] bool is_up(node_id u) const { return up_[u]; }

  [[nodiscard]] const radio::power_model& power() const { return link_.power(); }
  [[nodiscard]] const radio::link_model& link() const { return link_; }
  /// Materialized counters; tx_energy = sum of per-node energies in
  /// node order (engine-independent by construction).
  [[nodiscard]] medium_stats stats() const;
  /// Cumulative transmit energy spent by one node (sum of tx powers).
  [[nodiscard]] double tx_energy(node_id u) const { return node_energy_[u]; }
  [[nodiscard]] simulator& sim() { return sim_; }

 private:
  struct transmission;

  /// A free record of `from` (one whose copies have all run), holding
  /// this transmission's header and payload.
  transmission& open(node_id from, double tx_power, std::any payload);
  /// If link from -> to closes at the record's power, samples the
  /// channel and schedules every copy; `gain` is gain(from, to).
  void offer(transmission& tx, std::uint64_t tx_seq, node_id to, double distance, double gain);
  /// Publishes the record's pending count; its copies run after this.
  static void seal(transmission& tx);
  void deliver(transmission& tx, std::uint32_t copy, node_id to);

  simulator& sim_;
  radio::link_model link_;
  radio::channel channel_;
  radio::direction_estimator direction_;
  std::vector<geom::vec2> positions_;
  std::vector<rx_handler> handlers_;
  std::vector<bool> up_;
  std::vector<double> node_energy_;
  std::vector<std::uint64_t> node_tx_seq_;
  std::vector<std::vector<std::unique_ptr<transmission>>> records_;  // per sender
  std::atomic<std::uint64_t> broadcasts_{0};
  std::atomic<std::uint64_t> unicasts_{0};
  std::atomic<std::uint64_t> deliveries_{0};
  std::atomic<std::uint64_t> drops_{0};
  broadcast_directory directory_;
  move_hook move_hook_;
  liveness_hook liveness_hook_;
};

}  // namespace cbtc::sim
