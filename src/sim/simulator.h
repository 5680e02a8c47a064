// The discrete-event engine.
//
// Events are key-ordered callbacks on a virtual clock. The paper's
// synchronous rounds (Section 2) are realized by deadlines on this
// loop; its asynchronous model (Section 4) by unbounded-but-finite
// random delays injected at the channel layer.
//
// Every event carries a key (time, class, a, b, seq, copy) that is
// unique across the whole run:
//
//   class 0 — global events (mobility steps, crash/restart, engine
//             arming): a = b = 0, seq = a global monotone counter.
//   class 1 — node timer events (beacon ticks, round timeouts,
//             retry staggers): a = owning node, seq = that node's
//             monotone timer counter.
//   class 2 — message deliveries: a = receiver, b = sender, seq = the
//             sender's transmission counter (assigned once per
//             broadcast/unicast call), copy = duplicate index when the
//             channel delivers one transmission more than once.
//
// Keys totally order all events (class 0 < 1 < 2 at equal times), so
// heap insertion order never affects pop order.
//
// One region (the default). The engine pops its one queue in key order
// on the calling thread, and handlers schedule straight into it, at
// any delay (zero included). This is the bitwise reference.
//
// Two or more regions (conservative PDES). The field is cut into
// regions; every node belongs to one region (region_of), and every
// class-1/2 event belongs to its node. All delivery delays are at
// least the channel's base delay (the lookahead delta > 0), and every
// event time in a dynamic run lies on the lattice generated by timer
// periods and multiples of delta — so each conservative window
// [t, t + delta) contains exactly one event instant, and the engine
// processes the timeline instant by instant:
//
//   1. class-0 (global) events at t run serially, in key order —
//      positions, liveness, and the live-neighbor index mutate only
//      here;
//   2. the instant's class-1/2 events are routed to per-region lanes
//      by the *current* region_of (so a node that just migrated takes
//      its pending timers with it);
//   3. lanes drain concurrently on the shared executor, each in key
//      order. Handlers may self-schedule same-instant events (retry
//      staggers) — those land in the executing lane, which is provably
//      the owner's lane — and future events (timers, deliveries at
//      t + delta or later), which go to a per-lane outbox;
//   4. barrier: outboxes merge back into the main queue (order
//      irrelevant — keys are unique), then the barrier hook runs
//      (the dynamic engine flushes buffered topology-mirror deltas);
//   5. if any handler requested it, the instant hook runs (settled-
//      instant connectivity evaluation).
//
// Because each lane drains in key order and a node's events all land
// in one lane per instant, every node observes exactly the restriction
// of the one total order to its own events — reports, including
// per-node floating-point energy folds, are bitwise-identical to the
// one-region engine at any region count and any thread count.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::sim {

/// Virtual time, in abstract "seconds".
using time_point = double;

/// Canonical event ordering key; unique per event (see header comment).
struct event_key {
  time_point t{0.0};
  std::uint8_t cls{0};
  graph::node_id a{0};
  graph::node_id b{0};
  std::uint64_t seq{0};
  std::uint32_t copy{0};

  friend bool operator<(const event_key& x, const event_key& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.cls != y.cls) return x.cls < y.cls;
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    if (x.seq != y.seq) return x.seq < y.seq;
    return x.copy < y.copy;
  }
};

/// Lane telemetry of an engine with two or more regions (all zero
/// with one); the lookahead-safety test asserts violations == 0 while
/// parallel_events > 0.
struct partition_stats {
  std::uint64_t instants{0};          ///< distinct event instants processed
  std::uint64_t parallel_phases{0};   ///< instants fanned across the executor
  std::uint64_t parallel_events{0};   ///< class-1/2 events executed in lanes
  std::uint64_t serial_events{0};     ///< class-0 events executed at barriers
  std::uint64_t migrations{0};        ///< region boundary crossings
  std::uint64_t violations{0};        ///< events created inside a phase below now + lookahead
};

/// The one event engine: the medium, the protocol agents, mobility,
/// failure injection and the traffic plane all schedule through it.
class simulator {
 public:
  using action = std::function<void()>;

  struct config {
    std::uint32_t regions{1};
    double lookahead{0.0};  ///< minimum delivery delay; > 0 with two or more regions
    const util::thread_pool* pool{nullptr};  ///< lanes fan across this pool's width
    std::size_t serial_batch_limit{32};      ///< instants this small drain inline
  };

  /// One region, no pool.
  simulator() : simulator(0, config{}) {}
  simulator(std::size_t num_nodes, const config& cfg);

  /// Region management — serial contexts (class-0 events / between
  /// run_until calls) only.
  void set_region(graph::node_id u, std::uint32_t region);
  [[nodiscard]] std::uint32_t region_of(graph::node_id u) const { return region_of_[u]; }
  [[nodiscard]] std::uint32_t regions() const { return static_cast<std::uint32_t>(lanes_.size()); }

  /// Current virtual time.
  [[nodiscard]] time_point now() const { return now_; }

  /// Schedules a class-0 (global) event at absolute time `t` (clamped
  /// to now()). Global events mutate shared state (positions,
  /// liveness); with two or more regions they run serially, so they
  /// must never be scheduled from inside a delivery or timer handler.
  void schedule_at(time_point t, action fn);

  /// Schedules a class-0 event `delay` from now.
  void schedule_in(time_point delay, action fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Schedules a class-1 timer event owned by `owner` (clamped to
  /// now()). Safe to call from `owner`'s own handlers.
  void schedule_node(time_point t, graph::node_id owner, action fn);

  /// Schedules a class-2 delivery event. `tx_seq` is the sender's
  /// transmission counter, `copy` disambiguates channel duplicates.
  void schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                         std::uint64_t tx_seq, std::uint32_t copy, action fn);

  /// Runs until the queue is empty or `max_events` have been processed
  /// (with two or more regions, checked between instants). Returns the
  /// number of events processed.
  std::size_t run(std::size_t max_events = static_cast<std::size_t>(-1));

  /// Runs all events with time <= `t`, then advances the clock to `t`.
  /// Returns the number of events processed.
  std::size_t run_until(time_point t);

  /// End-of-instant hook: `fn` runs (serially) once for every instant
  /// during which request_instant_hook() was called, after all of that
  /// instant's events have executed. The dynamic engine uses it for
  /// connectivity evaluations, which thereby observe settled instants.
  void set_instant_hook(action fn) { instant_hook_ = std::move(fn); }

  /// Requests the instant hook for the current instant. Safe to call
  /// from any event handler, including inside a parallel region phase.
  void request_instant_hook() { hook_requested_.store(true, std::memory_order_relaxed); }

  /// Runs serially right after every parallel phase, before the
  /// instant hook; the dynamic engine applies deferred mirror deltas
  /// here. current_region() identifies the executing lane while a
  /// phase runs on this thread (valid inside event handlers only).
  /// With one region there is no phase: in_event_phase() is false.
  void set_barrier_hook(action fn) { barrier_hook_ = std::move(fn); }
  [[nodiscard]] static bool in_event_phase();
  [[nodiscard]] static std::uint32_t current_region();

  [[nodiscard]] std::size_t events_processed() const { return processed_; }
  [[nodiscard]] bool idle() const { return main_.empty(); }
  [[nodiscard]] std::size_t pending() const { return main_.size(); }
  [[nodiscard]] const partition_stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::uint64_t>& region_events() const { return region_events_; }

 private:
  struct event {
    event_key key;
    action fn;
  };
  struct later {
    bool operator()(const event& a, const event& b) const { return b.key < a.key; }
  };
  using event_queue = std::priority_queue<event, std::vector<event>, later>;

  struct alignas(64) lane {
    event_queue ready;          // this instant's events, drained in key order
    std::vector<event> outbox;  // future events created during the phase
    std::uint64_t executed{0};
  };

  static event pop(event_queue& q);
  /// One region: runs events with time <= `t`, at most `max_events`.
  std::size_t drain(time_point t, std::size_t max_events);
  /// Two or more regions: runs one instant through the lanes.
  void step_instant();
  void drain_lane(std::uint32_t r);

  event_queue main_;  // mutated only outside parallel phases
  std::vector<lane> lanes_;
  std::vector<std::uint32_t> region_of_;
  std::vector<std::uint64_t> node_seq_;
  std::vector<std::uint64_t> region_events_;
  std::vector<std::uint32_t> active_;  // scratch: lanes with work this instant
  const util::thread_pool* pool_;
  double lookahead_;
  std::size_t serial_batch_limit_;
  time_point now_{0.0};
  std::uint64_t global_seq_{0};
  std::size_t processed_{0};
  bool in_phase_{false};
  std::atomic<bool> hook_requested_{false};
  std::atomic<std::uint64_t> violations_{0};
  partition_stats stats_;
  action instant_hook_;
  action barrier_hook_;
};

}  // namespace cbtc::sim
