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
// the order in which events were scheduled never affects pop order.
//
// The queue takes an instant at a time. A pending event is a 32-byte,
// trivially copyable entry: its key plus the slot of its action. The
// actions (std::function) live in slabs that never move them — slab
// segment k holds 256 << k actions — so no sort or heap step ever
// moves a closure. Future entries wait in one unsorted bucket per
// instant, a chain of fixed-size chunks from one pool; instants are
// grouped by == on the time (so -0.0 and 0.0 are one instant) and kept
// in a min-heap, with a small open-addressing table to find an
// instant's bucket. Taking an instant hands over its whole bucket. The
// bucket is sorted once and popped in key order, merged with a small
// heap of the events scheduled into the instant while it runs
// (zero-delay events, retry staggers).
//
// One region (the default). The engine takes instants in time order on
// the calling thread and pops each in key order; handlers schedule
// straight into it, at any delay (zero included). This is the bitwise
// reference.
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
//   2. one linear pass hands each region's lane its share of the
//      instant's class-1/2 events, by the *current* region_of (so a
//      node that just migrated takes its pending timers with it);
//   3. lanes drain concurrently on the shared executor: each sorts its
//      share and pops it in key order. Handlers may self-schedule
//      same-instant events (retry staggers) — those join the executing
//      lane's arrival heap, and that lane is provably the owner's — and
//      future events (timers, deliveries at t + delta or later), which
//      go to a per-lane outbox. A handler's new actions go into its
//      lane's own slab; since no slab moves a stored action, a lane may
//      run an action another lane stored at an earlier instant while
//      that lane stores new ones;
//   4. barrier: outboxes merge into the instant buckets (order
//      irrelevant — keys are unique), executed slots return to their
//      slabs' free lists, then the barrier hook runs (the dynamic
//      engine flushes buffered topology-mirror deltas);
//   5. if any handler requested it, the instant hook runs (settled-
//      instant connectivity evaluation).
//
// Because each lane drains in key order and a node's events all land
// in one lane per instant, every node observes exactly the restriction
// of the one total order to its own events — reports, including
// per-node floating-point energy folds, are bitwise-identical to the
// one-region engine at any region count and any thread count.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/types.h"
#include "util/parallel.h"

namespace cbtc::sim {

/// Virtual time, in abstract "seconds".
using time_point = double;

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
  /// run_until calls) only. With two or more regions, throws
  /// std::out_of_range unless u is below the node count and `region`
  /// below regions().
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
  /// now()). Safe to call from `owner`'s own handlers. With one region
  /// any id is accepted; with two or more, an owner at or above the
  /// node count throws std::out_of_range.
  void schedule_node(time_point t, graph::node_id owner, action fn);

  /// Schedules a class-2 delivery event. `tx_seq` is the sender's
  /// transmission counter, `copy` (below 2^30) disambiguates channel
  /// duplicates. With two or more regions, a receiver `to` at or above
  /// the node count throws std::out_of_range.
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
  [[nodiscard]] bool idle() const { return current_.empty() && instants_.empty(); }
  [[nodiscard]] std::size_t pending() const;
  [[nodiscard]] const partition_stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<std::uint64_t>& region_events() const { return region_events_; }

 private:
  /// A pending event: its key, with the class in the top two bits of
  /// `cls_copy` and the copy in the rest, and the slot of its action.
  struct entry {
    time_point t;
    std::uint64_t seq;
    graph::node_id a;
    graph::node_id b;
    std::uint32_t cls_copy;
    std::uint32_t slot;
  };
  /// Key order among the entries of one instant: (class, a, b, seq,
  /// copy); equal times make the rest of the key the whole order.
  struct key_less {
    bool operator()(const entry& x, const entry& y) const {
      if ((x.cls_copy >> 30) != (y.cls_copy >> 30)) return x.cls_copy < y.cls_copy;
      if (x.a != y.a) return x.a < y.a;
      if (x.b != y.b) return x.b < y.b;
      if (x.seq != y.seq) return x.seq < y.seq;
      return x.cls_copy < y.cls_copy;
    }
  };

  /// Action storage that never moves what it holds: segment k holds
  /// 256 << k actions, and the segment table (allocated on first use)
  /// has a fixed size, so a lane may store new actions, creating
  /// segments, while other lanes run and clear actions it stored at
  /// earlier instants.
  class alignas(64) slab {
   public:
    action& operator[](std::uint32_t i) {
      const unsigned k = segment_of(i);
      return (*segments_)[k][i - (((std::uint32_t{1} << k) - 1) << base_bits)];
    }
    /// Stores `fn` in a free slot below `limit` (at most 2^31); returns
    /// the slot.
    std::uint32_t put(action&& fn, std::uint64_t limit);
    void release(std::uint32_t i) { free_.push_back(i); }

   private:
    static constexpr unsigned base_bits = 8;
    static unsigned segment_of(std::uint32_t i);

    // 256 * (2^24 - 1) >= 2^31 slots.
    std::unique_ptr<std::array<std::unique_ptr<action[]>, 24>> segments_;
    std::vector<std::uint32_t> free_;
    std::uint64_t size_{0};
  };

  /// One instant's events in key order: a batch sorted once and read
  /// front to back, merged with a min-heap of the events scheduled into
  /// the instant while it runs.
  struct instant_run {
    std::vector<entry> batch;
    std::size_t next{0};
    std::vector<entry> arrivals;

    [[nodiscard]] bool empty() const { return next == batch.size() && arrivals.empty(); }
    [[nodiscard]] std::size_t size() const { return batch.size() - next + arrivals.size(); }
    void start();
    void arrive(const entry& e);
    entry pop();
    void clear();
  };

  struct alignas(64) lane {
    instant_run run;                  // this instant's share, drained in key order
    std::vector<entry> outbox;        // future events created during the phase
    std::vector<std::uint32_t> done;  // executed slots, released at the barrier
  };

  static constexpr std::uint32_t none = 0xFFFFFFFFU;
  static constexpr std::uint32_t chunk_entries = 32;

  /// A pending instant: its time and the first chunk of its bucket.
  struct instant {
    time_point t;
    std::uint32_t bucket;
  };
  /// A piece of an instant's bucket. Buckets are chains of chunks from
  /// one pool, so their memory follows the pending count.
  struct chunk {
    std::array<entry, chunk_entries> entries;
    std::uint32_t size{0};
    std::uint32_t next{none};  // the bucket's next chunk
    std::uint32_t last{none};  // first chunk only: the bucket's last chunk
  };

  /// Times before now, and NaN, run now.
  [[nodiscard]] time_point clamp(time_point t) const { return t >= now_ ? t : now_; }
  void check_node(graph::node_id u, const char* what) const;
  [[nodiscard]] static std::uint32_t pack_class_copy(std::uint32_t cls, std::uint32_t copy);

  /// Slots below lane_slot name main_slab_; lane_slot | index <<
  /// lane_bits_ | r names lane_slabs_[r].
  static constexpr std::uint32_t lane_slot = 0x80000000U;
  std::uint32_t put_lane(std::uint32_t r, action&& fn);
  slab& slab_of(std::uint32_t slot, std::uint32_t& index) {
    if (slot < lane_slot) {
      index = slot;
      return main_slab_;
    }
    const std::uint32_t x = slot - lane_slot;
    index = x >> lane_bits_;
    return lane_slabs_[x & ((std::uint32_t{1} << lane_bits_) - 1)];
  }
  void release(std::uint32_t slot) {
    std::uint32_t i = 0;
    slab_of(slot, i).release(i);
  }
  /// Runs the action at `slot` and clears it; the slot is not released.
  void execute(std::uint32_t slot);

  /// Files a serially scheduled entry: into the running instant if it
  /// shares its time, otherwise into its instant's bucket.
  void push_serial(entry e, action&& fn);
  /// Appends `e` to the bucket of its instant, created if absent.
  void file(const entry& e);
  void append(std::uint32_t first, const entry& e);
  /// Removes the earliest instant from the heap and the index; returns
  /// the first chunk of its bucket and sets current_t_ to its time.
  std::uint32_t take_instant();
  std::uint32_t new_chunk();
  /// Returns every chunk of a bucket to the pool.
  void free_bucket(std::uint32_t first);
  template <class F>
  void for_each_entry(std::uint32_t first, F&& f) const {
    for (std::uint32_t c = first; c != none; c = chunks_[c].next) {
      for (std::uint32_t i = 0; i < chunks_[c].size; ++i) f(chunks_[c].entries[i]);
    }
  }
  [[nodiscard]] std::size_t home_of(time_point t) const;
  void grow_index();

  /// One region: runs events with time <= `t`, at most `max_events`.
  std::size_t drain(time_point t, std::size_t max_events);
  [[nodiscard]] bool settled() const;
  void fire_hook_if_settled();
  /// Two or more regions: runs one instant through the lanes.
  void step_instant();
  void drain_lane(std::uint32_t r);

  std::vector<lane> lanes_;
  std::vector<std::uint32_t> region_of_;
  std::vector<std::uint64_t> node_seq_;
  std::vector<std::uint64_t> region_events_;
  std::vector<std::uint32_t> active_;  // scratch: lanes with work this instant

  // Actions scheduled in serial contexts live in main_slab_, those a
  // lane's handlers schedule in its own slab.
  slab main_slab_;
  std::vector<slab> lane_slabs_;
  unsigned lane_bits_{0};

  // Future instants: a min-heap by time, the chunk pool of their
  // buckets and an open-addressing index from time to bucket.
  std::vector<instant> instants_;
  std::vector<chunk> chunks_;
  std::vector<std::uint32_t> free_chunks_;
  std::vector<instant> index_;  // bucket == none marks a free cell
  std::size_t indexed_{0};
  instant last_{0.0, none};  // the instant of the latest file() call

  // The running instant. With one region it stays open between
  // instants; with two or more only during the serial class-0 prefix,
  // whose same-instant class-1/2 events join the instant's bucket.
  instant_run current_;
  time_point current_t_{0.0};
  bool current_open_{false};
  std::uint32_t current_bucket_{none};

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
