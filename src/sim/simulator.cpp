#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace cbtc::sim {

namespace {
// Identifies the lane a worker thread is draining, so schedule calls
// made from inside event handlers land in the right place without
// touching the (serial-only) instant queue.
thread_local const simulator* t_active_sim = nullptr;
thread_local std::uint32_t t_region = 0;

/// Clears the lane marker even when a handler throws.
struct phase_guard {
  ~phase_guard() { t_active_sim = nullptr; }
};

constexpr std::uint32_t max_copy = (std::uint32_t{1} << 30) - 1;
}  // namespace

simulator::simulator(std::size_t num_nodes, const config& cfg)
    : lanes_(std::max<std::uint32_t>(cfg.regions, 1)),
      region_of_(num_nodes, 0),
      node_seq_(num_nodes, 0),
      region_events_(lanes_.size(), 0),
      index_(16, instant{0.0, none}),
      pool_(cfg.pool),
      lookahead_(cfg.lookahead),
      serial_batch_limit_(cfg.serial_batch_limit) {
  assert((lanes_.size() == 1 || lookahead_ > 0.0) &&
         "conservative sync needs a positive lookahead");
  if (lanes_.size() > 1) {
    lane_slabs_.resize(lanes_.size());
    lane_bits_ = static_cast<unsigned>(std::bit_width(lanes_.size() - 1));
  }
}

bool simulator::in_event_phase() { return t_active_sim != nullptr; }

std::uint32_t simulator::current_region() { return t_region; }

void simulator::check_node(graph::node_id u, const char* what) const {
  if (u >= region_of_.size()) {
    throw std::out_of_range(std::string("sim::simulator::") + what + ": node " +
                            std::to_string(u) + " is not below the node count " +
                            std::to_string(region_of_.size()));
  }
}

std::uint32_t simulator::pack_class_copy(std::uint32_t cls, std::uint32_t copy) {
  if (copy > max_copy) {
    throw std::out_of_range("sim::simulator::schedule_delivery: copy " + std::to_string(copy) +
                            " is not below 2^30");
  }
  return cls << 30 | copy;
}

void simulator::set_region(graph::node_id u, std::uint32_t region) {
  assert(!in_phase_ && "region migration is a serial (class-0) operation");
  if (region >= lanes_.size()) {
    throw std::out_of_range("sim::simulator::set_region: region " + std::to_string(region) +
                            " is not below the region count " + std::to_string(lanes_.size()));
  }
  if (lanes_.size() == 1) return;  // every node is in region 0
  check_node(u, "set_region");
  if (region_of_[u] == region) return;
  region_of_[u] = region;
  ++stats_.migrations;
}

// ---- slabs ---------------------------------------------------------------

unsigned simulator::slab::segment_of(std::uint32_t i) {
  return static_cast<unsigned>(std::bit_width((i >> base_bits) + 1U)) - 1;
}

std::uint32_t simulator::slab::put(action&& fn, std::uint64_t limit) {
  std::uint32_t i = 0;
  if (!free_.empty()) {
    i = free_.back();
    free_.pop_back();
  } else {
    if (size_ >= limit) throw std::length_error("sim::simulator: too many pending events");
    i = static_cast<std::uint32_t>(size_++);
    if (!segments_) segments_ = std::make_unique<std::array<std::unique_ptr<action[]>, 24>>();
    const unsigned k = segment_of(i);
    std::unique_ptr<action[]>& segment = (*segments_)[k];
    if (!segment) segment = std::make_unique<action[]>(std::size_t{1} << (base_bits + k));
  }
  (*this)[i] = std::move(fn);
  return i;
}

std::uint32_t simulator::put_lane(std::uint32_t r, action&& fn) {
  const std::uint32_t i = lane_slabs_[r].put(std::move(fn), std::uint64_t{1} << (31 - lane_bits_));
  return lane_slot | i << lane_bits_ | r;
}

void simulator::execute(std::uint32_t slot) {
  // Slabs never move an action, so the reference outlives any
  // scheduling the handler does.
  std::uint32_t i = 0;
  action& fn = slab_of(slot, i)[i];
  fn();
  fn = nullptr;
}

// ---- the instant queue -----------------------------------------------------

void simulator::instant_run::start() {
  std::sort(batch.begin(), batch.end(), key_less{});
  next = 0;
}

void simulator::instant_run::arrive(const entry& e) {
  arrivals.push_back(e);
  std::push_heap(arrivals.begin(), arrivals.end(),
                 [](const entry& x, const entry& y) { return key_less{}(y, x); });
}

simulator::entry simulator::instant_run::pop() {
  if (!arrivals.empty() && (next == batch.size() || key_less{}(arrivals.front(), batch[next]))) {
    std::pop_heap(arrivals.begin(), arrivals.end(),
                  [](const entry& x, const entry& y) { return key_less{}(y, x); });
    const entry e = arrivals.back();
    arrivals.pop_back();
    return e;
  }
  return batch[next++];
}

void simulator::instant_run::clear() {
  batch.clear();
  next = 0;
  arrivals.clear();
}

std::size_t simulator::home_of(time_point t) const {
  // -0.0 == 0.0, so both must hash alike.
  const auto bits = std::bit_cast<std::uint64_t>(t == 0.0 ? 0.0 : t);
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> 32) & (index_.size() - 1);
}

void simulator::grow_index() {
  std::vector<instant> old(index_.size() * 2, instant{0.0, none});
  old.swap(index_);
  const std::size_t mask = index_.size() - 1;
  for (const instant& in : old) {
    if (in.bucket == none) continue;
    std::size_t i = home_of(in.t);
    while (index_[i].bucket != none) i = (i + 1) & mask;
    index_[i] = in;
  }
}

std::uint32_t simulator::new_chunk() {
  std::uint32_t c = 0;
  if (free_chunks_.empty()) {
    c = static_cast<std::uint32_t>(chunks_.size());
    chunks_.emplace_back();
  } else {
    c = free_chunks_.back();
    free_chunks_.pop_back();
  }
  chunks_[c].size = 0;
  chunks_[c].next = none;
  chunks_[c].last = c;
  return c;
}

void simulator::free_bucket(std::uint32_t first) {
  for (std::uint32_t c = first; c != none; c = chunks_[c].next) free_chunks_.push_back(c);
}

void simulator::file(const entry& e) {
  if (last_.bucket == none || last_.t != e.t) {
    std::size_t mask = index_.size() - 1;
    std::size_t i = home_of(e.t);
    while (index_[i].bucket != none && index_[i].t != e.t) i = (i + 1) & mask;
    if (index_[i].bucket == none) {  // a new instant
      if (2 * (indexed_ + 1) > index_.size()) {
        grow_index();
        mask = index_.size() - 1;
        for (i = home_of(e.t); index_[i].bucket != none; i = (i + 1) & mask) {
        }
      }
      index_[i] = instant{e.t, new_chunk()};
      ++indexed_;
      instants_.push_back(index_[i]);
      std::push_heap(instants_.begin(), instants_.end(),
                     [](const instant& x, const instant& y) { return y.t < x.t; });
    }
    last_ = index_[i];
  }
  append(last_.bucket, e);
}

void simulator::append(std::uint32_t first, const entry& e) {
  std::uint32_t tail = chunks_[first].last;
  if (chunks_[tail].size == chunk_entries) {
    const std::uint32_t c = new_chunk();
    chunks_[tail].next = c;
    chunks_[first].last = c;
    tail = c;
  }
  chunk& k = chunks_[tail];
  k.entries[k.size++] = e;
}

std::uint32_t simulator::take_instant() {
  std::pop_heap(instants_.begin(), instants_.end(),
                [](const instant& x, const instant& y) { return y.t < x.t; });
  const instant taken = instants_.back();
  instants_.pop_back();

  // Unindex by backward shift: every later cell of the probe run moves
  // into the hole unless its home lies cyclically after the hole.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home_of(taken.t);
  while (index_[hole].bucket != taken.bucket) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j].bucket != none; j = (j + 1) & mask) {
    if (((j - home_of(index_[j].t)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].bucket = none;
  --indexed_;
  if (last_.bucket == taken.bucket) last_.bucket = none;
  current_t_ = taken.t;
  return taken.bucket;
}

std::size_t simulator::pending() const {
  std::size_t n = current_.size();
  for (const instant& in : instants_) for_each_entry(in.bucket, [&n](const entry&) { ++n; });
  return n;
}

// ---- scheduling -------------------------------------------------------------

void simulator::push_serial(entry e, action&& fn) {
  e.slot = main_slab_.put(std::move(fn), lane_slot);
  if (current_open_ && e.t == current_t_) {
    if (lanes_.size() > 1 && (e.cls_copy >> 30) != 0) {
      append(current_bucket_, e);  // routed to the lanes with the rest
    } else {
      current_.arrive(e);
    }
    return;
  }
  file(e);
}

void simulator::schedule_at(time_point t, action fn) {
  // Global events mutate shared state; creating one from inside a
  // parallel phase would be a synchronization bug in the caller.
  assert(t_active_sim != this && "class-0 events must not be scheduled from handlers");
  push_serial({clamp(t), global_seq_++, 0, 0, pack_class_copy(0, 0), 0}, std::move(fn));
}

void simulator::schedule_node(time_point t, graph::node_id owner, action fn) {
  t = clamp(t);
  if (lanes_.size() > 1) check_node(owner, "schedule_node");
  if (t_active_sim == this) {
    lane& L = lanes_[t_region];
    const std::uint64_t seq = node_seq_[owner]++;
    const std::uint32_t slot = put_lane(t_region, std::move(fn));
    if (t <= now_) {
      // Same-instant self event (retry stagger): provably lane-local,
      // because the scheduling handler belongs to `owner` itself.
      if (region_of_[owner] != t_region) violations_.fetch_add(1, std::memory_order_relaxed);
      assert(region_of_[owner] == t_region);
      L.run.arrive({now_, seq, owner, 0, pack_class_copy(1, 0), slot});
    } else {
      L.outbox.push_back({t, seq, owner, 0, pack_class_copy(1, 0), slot});
    }
    return;
  }
  if (owner >= node_seq_.size()) node_seq_.resize(owner + 1, 0);  // one region only
  push_serial({t, node_seq_[owner]++, owner, 0, pack_class_copy(1, 0), 0}, std::move(fn));
}

void simulator::schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                                  std::uint64_t tx_seq, std::uint32_t copy, action fn) {
  t = clamp(t);
  if (lanes_.size() > 1) check_node(to, "schedule_delivery");
  const std::uint32_t key_cls_copy = pack_class_copy(2, copy);
  if (t_active_sim == this) {
    // Cross-region influence must stay outside the conservative
    // window; the channel's minimum delay (== lookahead) guarantees it.
    if (t < now_ + lookahead_) violations_.fetch_add(1, std::memory_order_relaxed);
    lane& L = lanes_[t_region];
    L.outbox.push_back({t, tx_seq, to, from, key_cls_copy, put_lane(t_region, std::move(fn))});
    return;
  }
  push_serial({t, tx_seq, to, from, key_cls_copy, 0}, std::move(fn));
}

// ---- one region -------------------------------------------------------------

bool simulator::settled() const {
  // The instant at now_ is settled once no pending event shares it.
  return current_.empty() && (instants_.empty() || instants_.front().t > now_);
}

void simulator::fire_hook_if_settled() {
  if (hook_requested_.load(std::memory_order_relaxed) && settled()) {
    hook_requested_.store(false, std::memory_order_relaxed);
    if (instant_hook_) instant_hook_();
  }
}

std::size_t simulator::drain(time_point t, std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events) {
    if (current_.empty()) {
      if (instants_.empty() || instants_.front().t > t) break;
      const std::uint32_t first = take_instant();
      current_.clear();
      for_each_entry(first, [this](const entry& e) { current_.batch.push_back(e); });
      free_bucket(first);
      current_.start();
      current_open_ = true;
    } else if (current_t_ > t) {
      break;
    }
    const entry e = current_.pop();
    now_ = e.t;
    ++processed_;
    ++count;
    execute(e.slot);
    release(e.slot);
    fire_hook_if_settled();
  }
  fire_hook_if_settled();
  return count;
}

// ---- two or more regions ----------------------------------------------------

void simulator::drain_lane(std::uint32_t r) {
  lane& L = lanes_[r];
  t_active_sim = this;
  t_region = r;
  const phase_guard guard;
  L.run.start();
  while (!L.run.empty()) {
    const entry e = L.run.pop();
    execute(e.slot);
    L.done.push_back(e.slot);
  }
  region_events_[r] += L.done.size();
}

void simulator::step_instant() {
  const std::uint32_t first = take_instant();
  current_bucket_ = first;
  ++stats_.instants;

  // 1. Serial class-0 prefix: global state (positions, liveness,
  // region membership) settles before any handler runs.
  current_.clear();
  for_each_entry(first, [this](const entry& e) {
    if ((e.cls_copy >> 30) == 0) current_.batch.push_back(e);
  });
  current_.start();
  now_ = current_t_;
  if (now_ == 0.0) {  // -0.0 or 0.0: the clock reads the zero of the first event in key order
    entry head = chunks_[first].entries[0];
    for_each_entry(first, [&head](const entry& e) {
      if (key_less{}(e, head)) head = e;
    });
    now_ = head.t;
  }
  current_open_ = true;
  while (!current_.empty()) {
    const entry e = current_.pop();
    ++processed_;
    ++stats_.serial_events;
    execute(e.slot);
    release(e.slot);
  }
  current_open_ = false;

  // 2. Hand each lane its share by the current region map (a node
  // that just migrated takes its timers with it), in one pass over the
  // bucket, which now also holds the class-1/2 events the prefix added.
  active_.clear();
  std::size_t batch = 0;
  for_each_entry(first, [this, &batch](const entry& e) {
    if ((e.cls_copy >> 30) == 0) return;
    const std::uint32_t r = region_of_[e.a];
    std::vector<entry>& share = lanes_[r].run.batch;
    if (share.empty()) active_.push_back(r);
    share.push_back(e);
    ++batch;
  });
  free_bucket(first);

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
      pool_->parallel_for(active_.size(), [this](std::size_t i) { drain_lane(active_[i]); });
    }
    in_phase_ = false;

    // 4. Barrier: file the outboxes by instant (keys are unique, so
    // filing order is irrelevant), free the executed slots, and let the
    // engine flush its deferred per-region state.
    for (const std::uint32_t r : active_) {
      lane& L = lanes_[r];
      for (const entry& e : L.outbox) file(e);
      L.outbox.clear();
      for (const std::uint32_t slot : L.done) release(slot);
      processed_ += L.done.size();
      stats_.parallel_events += L.done.size();
      L.done.clear();
      L.run.clear();
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
  while (!instants_.empty() && processed_ - before < max_events) step_instant();
  return processed_ - before;
}

std::size_t simulator::run_until(time_point t) {
  const std::size_t before = processed_;
  if (lanes_.size() == 1) {
    drain(t, static_cast<std::size_t>(-1));
  } else {
    while (!instants_.empty() && instants_.front().t <= t) step_instant();
  }
  if (now_ < t) now_ = t;
  return processed_ - before;
}

}  // namespace cbtc::sim
