// The event queue against a reference: a randomized schedule with heavy
// ties on a coarse time lattice runs on sim::simulator and on a plain
// std::priority_queue of full keys, and both must agree on the order
// of execution, the counts returned by run(max_events) and the
// instant-hook firings.
//
// Every event's behaviour is a function of its own key (hashed into a
// generator) and of per-node counters, so the two runs schedule the
// same events exactly when they execute them in the same order:
//
//   * class-0 handlers schedule class 0, 1 and 2 events at now and in
//     the future, and (with lanes) migrate nodes between regions;
//   * class-1/2 handlers schedule same-instant retries and future
//     timers for their own node and deliveries to any node; with one
//     region they also schedule zero-delay deliveries and class-0
//     events.
//
// With one region the engine's whole execution sequence must equal the
// reference's. With lanes, each node's events and the class-0 events
// must run in the reference's order, the executed set must be the
// reference's, and run(max_events) stops between instants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/parallel.h"

namespace cbtc::sim {
namespace {

constexpr double step = 0.25;     // the lattice; also the lookahead (exact in binary)
constexpr double horizon = 12.0;  // no event is scheduled later than this
constexpr std::uint32_t nodes = 48;

struct key {
  double t;
  std::uint32_t cls;
  std::uint32_t a;
  std::uint32_t b;
  std::uint64_t seq;
  std::uint32_t copy;

  friend bool operator<(const key& x, const key& y) {
    return std::tie(x.t, x.cls, x.a, x.b, x.seq, x.copy) <
           std::tie(y.t, y.cls, y.a, y.b, y.seq, y.copy);
  }
  friend bool operator==(const key& x, const key& y) = default;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// A small generator seeded by an event's key.
struct draw {
  std::uint64_t state;
  draw(std::uint64_t seed, const key& k) : state(seed) {
    for (const std::uint64_t field : {static_cast<std::uint64_t>(k.t / step),
                                      std::uint64_t{k.cls}, std::uint64_t{k.a},
                                      std::uint64_t{k.b}, k.seq, std::uint64_t{k.copy}}) {
      state = mix(state ^ field);
    }
  }
  std::uint32_t below(std::uint32_t n) {
    state = mix(state);
    return static_cast<std::uint32_t>(state % n);
  }
  bool chance(std::uint32_t percent) { return below(100) < percent; }
};

/// The counters a run's behaviour reads and advances, one set per run.
struct world {
  std::uint64_t seed;
  std::uint32_t regions;
  std::uint64_t global_seq{0};                      // mirrors the engine's class-0 counter
  std::vector<std::uint64_t> node_seq = std::vector<std::uint64_t>(nodes, 0);  // timers
  std::vector<std::uint64_t> tx_seq = std::vector<std::uint64_t>(nodes, 0);    // deliveries
};

template <class Sink>
void sink_at_global(world& w, Sink& sink, double t, int depth) {
  if (t <= horizon) sink.at({t, 0, 0, 0, w.global_seq++, 0}, depth);
}

/// What one event does. `Sink` schedules: at(key, depth) for every
/// class, hook(), migrate(u, region). `depth` counts same-instant
/// spawns, so zero-delay chains end; -1 marks the class-0 chains.
template <class Sink>
void behave(world& w, const key& k, int depth, Sink& sink) {
  draw d(w.seed, k);
  const double now = k.t;
  const bool lanes = w.regions > 1;
  const auto later = [&](std::uint32_t max_steps) {
    return now + step * static_cast<double>(1 + d.below(max_steps));
  };
  const auto timer = [&](double t, std::uint32_t owner) {
    if (t <= horizon) {
      sink.at({t, 1, owner, 0, w.node_seq[owner]++, 0}, t == now ? std::max(depth, 0) + 1 : 0);
    }
  };
  const auto transmit = [&](double t_min, std::uint32_t from) {
    const std::uint64_t seq = w.tx_seq[from]++;
    const std::uint32_t receivers = 1 + d.below(2);
    const std::uint32_t first = d.below(nodes);
    for (std::uint32_t r = 0; r < receivers; ++r) {
      const auto to = static_cast<std::uint32_t>((first + 5 * r) % nodes);
      const std::uint32_t copies = 1 + d.below(2);
      for (std::uint32_t c = 0; c < copies; ++c) {
        const double t = t_min + step * static_cast<double>(d.below(2));
        if (t <= horizon) sink.at({t, 2, to, from, seq, c}, t == now ? std::max(depth, 0) + 1 : 0);
      }
    }
  };
  const bool may_repeat_now = depth < 3;

  if (k.cls == 0) {
    // Four class-0 chains (depth -1) run to the horizon and keep
    // feeding the lanes.
    if (depth < 0) sink_at_global(w, sink, now + step * static_cast<double>(1 + d.below(2)), -1);
    if (may_repeat_now && d.chance(30)) sink_at_global(w, sink, now, std::max(depth, 0) + 1);
    for (std::uint32_t i = 1 + d.below(4); i > 0; --i) {
      timer(may_repeat_now && d.chance(50) ? now : later(3), d.below(nodes));
    }
    if (d.chance(50)) transmit(may_repeat_now && d.chance(50) ? now : later(2), d.below(nodes));
    if (lanes && d.chance(40)) sink.migrate(d.below(nodes), d.below(w.regions));
  } else {
    // Fewer than one child per event on average, so the load stays
    // bounded without the horizon.
    const std::uint32_t self = k.a;
    if (may_repeat_now && d.chance(15)) timer(now, self);  // a same-instant retry
    if (d.chance(30)) timer(later(3), self);
    if (d.chance(15)) {
      // Lanes send no closer than one lookahead; one region may send at now.
      transmit(!lanes && may_repeat_now && d.chance(30) ? now : now + step, self);
    }
    if (!lanes && d.chance(3)) {
      const double t = may_repeat_now && d.chance(50) ? now : later(2);
      sink_at_global(w, sink, t, t == now ? depth + 1 : 0);
    }
  }
  if (d.chance(15)) sink.hook();
}

/// Seeds a run: a few global events and every node's first timers.
template <class Sink>
void seed_events(world& w, Sink& sink) {
  draw d(w.seed, key{0.0, 9, 0, 0, 0, 0});
  for (int i = 0; i < 4; ++i) sink_at_global(w, sink, step * static_cast<double>(i), -1);
  for (std::uint32_t u = 0; u < nodes; ++u) {
    for (int i = 0; i < 6; ++i) {
      const double t = step * static_cast<double>(d.below(8));
      sink.at({t, 1, u, 0, w.node_seq[u]++, 0}, 0);
    }
  }
}

/// The reference: one priority queue of full keys, popped in order.
struct reference {
  struct pending {
    key k;
    int depth;
    friend bool operator>(const pending& x, const pending& y) { return y.k < x.k; }
  };
  std::priority_queue<pending, std::vector<pending>, std::greater<>> queue;
  bool hook_requested{false};

  void at(const key& k, int depth) { queue.push({k, depth}); }
  void hook() { hook_requested = true; }
  void migrate(std::uint32_t, std::uint32_t) {}
};

struct reference_run {
  std::vector<key> sequence;
  std::vector<std::size_t> instant_end;  // one past each instant's last event
  std::vector<std::pair<double, std::size_t>> hooks;  // (time, events processed)
};

reference_run run_reference(std::uint64_t seed, std::uint32_t regions) {
  world w{.seed = seed, .regions = regions};
  reference ref;
  seed_events(w, ref);
  reference_run out;
  while (!ref.queue.empty() && out.sequence.size() < 200000) {
    const reference::pending p = ref.queue.top();
    ref.queue.pop();
    out.sequence.push_back(p.k);
    behave(w, p.k, p.depth, ref);
    if (ref.queue.empty() || !(ref.queue.top().k.t == p.k.t)) {
      out.instant_end.push_back(out.sequence.size());
      if (ref.hook_requested) out.hooks.emplace_back(p.k.t, out.sequence.size());
      ref.hook_requested = false;
    }
  }
  return out;
}

/// The engine under test, fed by the same behaviour.
struct engine_run {
  simulator& sim;
  world w;
  std::vector<key> sequence{};    // one region: everything
  std::vector<key> global_log{};  // lanes: class-0 events
  std::vector<std::vector<key>> node_log = std::vector<std::vector<key>>(nodes);
  std::vector<std::pair<double, std::size_t>> hooks{};

  void record(const key& k) {
    if (w.regions == 1) {
      sequence.push_back(k);
    } else if (k.cls == 0) {
      global_log.push_back(k);
    } else {
      node_log[k.a].push_back(k);  // only the node's own lane writes here
    }
  }
  void at(const key& k, int depth) {
    auto fn = [this, k, depth] {
      record(k);
      behave(w, k, depth, *this);
    };
    if (k.cls == 0) {
      sim.schedule_at(k.t, fn);
    } else if (k.cls == 1) {
      sim.schedule_node(k.t, k.a, fn);
    } else {
      sim.schedule_delivery(k.t, k.a, k.b, k.seq, k.copy, fn);
    }
  }
  void hook() { sim.request_instant_hook(); }
  void migrate(std::uint32_t u, std::uint32_t region) { sim.set_region(u, region); }
};

template <class Keep>
std::vector<key> filtered(const std::vector<key>& sequence, Keep keep) {
  std::vector<key> out;
  std::copy_if(sequence.begin(), sequence.end(), std::back_inserter(out), keep);
  return out;
}

void check_against_reference(std::uint32_t regions, unsigned threads, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << regions << " regions, " << threads << " threads, seed "
                                  << seed);
  const reference_run want = run_reference(seed, regions);
  ASSERT_GT(want.sequence.size(), 2000u) << "the schedule must be busy";
  ASSERT_LT(want.sequence.size(), 200000u) << "the schedule must stay bounded";
  ASSERT_LT(want.instant_end.size(), want.sequence.size() / 20) << "instants must hold ties";

  const util::thread_pool pool(threads);
  simulator sim(nodes, {.regions = regions, .lookahead = regions > 1 ? step : 0.0,
                        .pool = &pool, .serial_batch_limit = 0});
  engine_run got{.sim = sim, .w = {.seed = seed, .regions = regions}};
  for (std::uint32_t u = 0; u < nodes && regions > 1; ++u) {
    sim.set_region(u, static_cast<std::uint32_t>(mix(seed + u) % regions));
  }
  sim.set_instant_hook([&] { got.hooks.emplace_back(sim.now(), sim.events_processed()); });
  seed_events(got.w, got);

  // run(max_events) in uneven slices; the expected count of each call
  // follows from the reference (with lanes, whole instants only).
  std::uint64_t slicer = seed;
  std::size_t done = 0;
  std::size_t instant = 0;  // first reference instant not yet run (lanes)
  while (!sim.idle()) {
    const std::size_t max_events = 1 + mix(slicer++) % 400;
    std::size_t expect = 0;
    if (regions == 1) {
      expect = std::min(max_events, want.sequence.size() - done);
    } else {
      while (instant < want.instant_end.size() && expect < max_events) {
        expect = want.instant_end[instant++] - done;
      }
    }
    ASSERT_EQ(sim.run(max_events), expect) << "after " << done << " events";
    done += expect;
    ASSERT_EQ(sim.events_processed(), done);
  }
  EXPECT_EQ(done, want.sequence.size());
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_EQ(got.hooks, want.hooks);

  if (regions == 1) {
    EXPECT_EQ(got.sequence, want.sequence);
    return;
  }
  EXPECT_EQ(sim.stats().instants, want.instant_end.size());
  EXPECT_EQ(sim.stats().violations, 0u);
  if (threads > 1) {
    EXPECT_GT(sim.stats().parallel_phases, 0u);
  }
  EXPECT_EQ(got.global_log, filtered(want.sequence, [](const key& k) { return k.cls == 0; }));
  std::vector<key> all = got.global_log;
  for (std::uint32_t u = 0; u < nodes; ++u) {
    EXPECT_EQ(got.node_log[u],
              filtered(want.sequence, [u](const key& k) { return k.cls != 0 && k.a == u; }))
        << "node " << u;
    all.insert(all.end(), got.node_log[u].begin(), got.node_log[u].end());
  }
  std::vector<key> want_all = want.sequence;
  std::sort(all.begin(), all.end());
  std::sort(want_all.begin(), want_all.end());
  EXPECT_EQ(all, want_all);
}

TEST(SimQueue, OneRegionMatchesReferenceOrder) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) check_against_reference(1, 1, seed);
}

TEST(SimQueue, FourRegionsMatchReferenceOrder) {
  for (const unsigned threads : {1U, 4U}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) check_against_reference(4, threads, seed);
  }
}

TEST(SimQueue, SixteenRegionsMatchReferenceOrder) {
  for (const unsigned threads : {1U, 4U}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) check_against_reference(16, threads, seed);
  }
}

/// -0.0 == 0.0: events at either zero are one instant, at any region count.
TEST(SimQueue, SignedZerosShareAnInstant) {
  for (const std::uint32_t regions : {1U, 4U}) {
    simulator sim(8, {.regions = regions, .lookahead = 0.5});
    std::vector<std::uint32_t> order;
    int hooks = 0;
    sim.set_instant_hook([&] { ++hooks; });
    sim.schedule_node(0.0, 5, [&] { order.push_back(5); });
    sim.schedule_node(-0.0, 2, [&] {
      order.push_back(2);
      sim.request_instant_hook();
    });
    sim.schedule_delivery(-0.0, 1, 0, 0, 0, [&] { order.push_back(1); });
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(order, (std::vector<std::uint32_t>{2, 5, 1})) << regions << " regions";
    EXPECT_EQ(hooks, 1) << regions << " regions";
    if (regions > 1) {
      EXPECT_EQ(sim.stats().instants, 1u);
    }
  }
}

}  // namespace
}  // namespace cbtc::sim
