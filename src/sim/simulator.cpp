#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

namespace cbtc::sim {

namespace {
// Identifies the lane a worker thread is draining, so schedule calls
// made from inside event handlers land in the right place without
// touching the (serial-only) main queue.
thread_local const simulator* t_active_sim = nullptr;
thread_local std::uint32_t t_region = 0;
}  // namespace

simulator::simulator(std::size_t num_nodes, const config& cfg)
    : lanes_(std::max<std::uint32_t>(cfg.regions, 1)),
      region_of_(num_nodes, 0),
      node_seq_(num_nodes, 0),
      region_events_(lanes_.size(), 0),
      pool_(cfg.pool),
      lookahead_(cfg.lookahead),
      serial_batch_limit_(cfg.serial_batch_limit) {
  assert((lanes_.size() == 1 || lookahead_ > 0.0) &&
         "conservative sync needs a positive lookahead");
}

bool simulator::in_event_phase() { return t_active_sim != nullptr; }

std::uint32_t simulator::current_region() { return t_region; }

void simulator::set_region(graph::node_id u, std::uint32_t region) {
  assert(!in_phase_ && "region migration is a serial (class-0) operation");
  assert(region < lanes_.size());
  if (region_of_[u] == region) return;
  region_of_[u] = region;
  ++stats_.migrations;
}

void simulator::schedule_at(time_point t, action fn) {
  // Global events mutate shared state; creating one from inside a
  // parallel phase would be a synchronization bug in the caller.
  assert(t_active_sim != this && "class-0 events must not be scheduled from handlers");
  if (t < now_) t = now_;
  main_.push({event_key{t, 0, 0, 0, global_seq_++, 0}, std::move(fn)});
}

void simulator::schedule_node(time_point t, graph::node_id owner, action fn) {
  if (t < now_) t = now_;
  if (t_active_sim == this) {
    const std::uint64_t seq = node_seq_[owner]++;
    lane& L = lanes_[t_region];
    if (t <= now_) {
      // Same-instant self event (retry stagger): provably lane-local,
      // because the scheduling handler belongs to `owner` itself.
      if (region_of_[owner] != t_region) violations_.fetch_add(1, std::memory_order_relaxed);
      assert(region_of_[owner] == t_region);
      L.ready.push({event_key{now_, 1, owner, 0, seq, 0}, std::move(fn)});
    } else {
      L.outbox.push_back({event_key{t, 1, owner, 0, seq, 0}, std::move(fn)});
    }
    return;
  }
  if (owner >= node_seq_.size()) node_seq_.resize(owner + 1, 0);
  main_.push({event_key{t, 1, owner, 0, node_seq_[owner]++, 0}, std::move(fn)});
}

void simulator::schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                                  std::uint64_t tx_seq, std::uint32_t copy, action fn) {
  if (t < now_) t = now_;
  if (t_active_sim == this) {
    // Cross-region influence must stay outside the conservative
    // window; the channel's minimum delay (== lookahead) guarantees it.
    if (t < now_ + lookahead_) violations_.fetch_add(1, std::memory_order_relaxed);
    lanes_[t_region].outbox.push_back({event_key{t, 2, to, from, tx_seq, copy}, std::move(fn)});
    return;
  }
  main_.push({event_key{t, 2, to, from, tx_seq, copy}, std::move(fn)});
}

simulator::event simulator::pop(event_queue& q) {
  // priority_queue::top returns const&; the action must be moved out
  // before pop.
  event ev = std::move(const_cast<event&>(q.top()));
  q.pop();
  return ev;
}

std::size_t simulator::drain(time_point t, std::size_t max_events) {
  // The instant at now_ is settled once no pending event shares it.
  const auto fire_hook_if_settled = [this] {
    if (hook_requested_.load(std::memory_order_relaxed) &&
        (main_.empty() || main_.top().key.t > now_)) {
      hook_requested_.store(false, std::memory_order_relaxed);
      if (instant_hook_) instant_hook_();
    }
  };
  std::size_t count = 0;
  while (count < max_events && !main_.empty() && main_.top().key.t <= t) {
    event ev = pop(main_);
    now_ = ev.key.t;
    ++processed_;
    ++count;
    ev.fn();
    fire_hook_if_settled();
  }
  fire_hook_if_settled();
  return count;
}

void simulator::drain_lane(std::uint32_t r) {
  lane& L = lanes_[r];
  t_active_sim = this;
  t_region = r;
  std::uint64_t n = 0;
  while (!L.ready.empty()) {
    pop(L.ready).fn();
    ++n;
  }
  t_active_sim = nullptr;
  L.executed = n;
  region_events_[r] += n;
}

void simulator::step_instant() {
  const time_point t0 = main_.top().key.t;
  now_ = t0;
  ++stats_.instants;

  // 1. Serial class-0 prefix: global state (positions, liveness,
  // region membership) settles before any handler runs.
  while (!main_.empty() && main_.top().key.t <= t0 && main_.top().key.cls == 0) {
    event ev = pop(main_);
    ++processed_;
    ++stats_.serial_events;
    ev.fn();
  }

  // 2. Route the instant's class-1/2 events to lanes by the current
  // region map (a node that just migrated takes its timers with it).
  std::size_t batch = 0;
  active_.clear();
  while (!main_.empty() && main_.top().key.t <= t0) {
    event ev = pop(main_);
    const std::uint32_t r = region_of_[ev.key.a];
    if (lanes_[r].ready.empty()) active_.push_back(r);
    lanes_[r].ready.push(std::move(ev));
    ++batch;
  }

  if (batch > 0) {
    // 3. Parallel phase. Tiny instants drain inline: the order is the
    // same either way (lanes are independent), only the wall clock
    // differs.
    const bool inline_run = pool_ == nullptr || pool_->size() <= 1 || active_.size() <= 1 ||
                            batch <= serial_batch_limit_;
    in_phase_ = true;
    if (inline_run) {
      for (const std::uint32_t r : active_) drain_lane(r);
    } else {
      ++stats_.parallel_phases;
      pool_->parallel_for(active_.size(),
                          [this](std::size_t i) { drain_lane(active_[i]); });
    }
    in_phase_ = false;

    // 4. Barrier: merge outboxes into the main queue (keys are unique,
    // so merge order is irrelevant) and let the engine flush its
    // deferred per-region state.
    for (const std::uint32_t r : active_) {
      lane& L = lanes_[r];
      for (event& ev : L.outbox) main_.push(std::move(ev));
      L.outbox.clear();
      processed_ += L.executed;
      stats_.parallel_events += L.executed;
      L.executed = 0;
    }
    if (barrier_hook_) barrier_hook_();
  }

  // 5. Settled-instant hook (connectivity evaluation).
  if (hook_requested_.exchange(false, std::memory_order_relaxed) && instant_hook_) {
    instant_hook_();
  }
  stats_.violations = violations_.load(std::memory_order_relaxed);
}

std::size_t simulator::run(std::size_t max_events) {
  if (lanes_.size() == 1) return drain(std::numeric_limits<time_point>::infinity(), max_events);
  const std::size_t before = processed_;
  while (!main_.empty() && processed_ - before < max_events) step_instant();
  return processed_ - before;
}

std::size_t simulator::run_until(time_point t) {
  const std::size_t before = processed_;
  if (lanes_.size() == 1) {
    drain(t, static_cast<std::size_t>(-1));
  } else {
    while (!main_.empty() && main_.top().key.t <= t) step_instant();
  }
  if (now_ < t) now_ = t;
  return processed_ - before;
}

}  // namespace cbtc::sim
