#include "sim/simulator.h"

#include <utility>

namespace cbtc::sim {

void simulator::push(event_key key, action fn) {
  if (key.t < now_) key.t = now_;
  queue_.push({key, std::move(fn)});
}

void simulator::schedule_at(time_point t, action fn) {
  push({t, 0, 0, 0, global_seq_++, 0}, std::move(fn));
}

void simulator::schedule_node(time_point t, graph::node_id owner, action fn) {
  if (owner >= node_seq_.size()) node_seq_.resize(owner + 1, 0);
  push({t, 1, owner, 0, node_seq_[owner]++, 0}, std::move(fn));
}

void simulator::schedule_delivery(time_point t, graph::node_id to, graph::node_id from,
                                  std::uint64_t tx_seq, std::uint32_t copy, action fn) {
  push({t, 2, to, from, tx_seq, copy}, std::move(fn));
}

void simulator::pop_run_top() {
  // priority_queue::top returns const&; the action must be moved out
  // before pop, so copy the metadata and move the closure.
  event ev = std::move(const_cast<event&>(queue_.top()));
  queue_.pop();
  now_ = ev.key.t;
  ++processed_;
  ev.fn();
}

void simulator::fire_instant_hook_if_due() {
  // The instant at now_ is settled once no pending event shares it.
  while (hook_requested_ && (queue_.empty() || queue_.top().key.t > now_)) {
    hook_requested_ = false;
    if (!instant_hook_) break;
    instant_hook_();
  }
}

std::size_t simulator::run(std::size_t max_events) {
  std::size_t count = 0;
  while (!queue_.empty() && count < max_events) {
    pop_run_top();
    ++count;
    fire_instant_hook_if_due();
  }
  return count;
}

std::size_t simulator::run_until(time_point t) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().key.t <= t) {
    pop_run_top();
    ++count;
    fire_instant_hook_if_due();
  }
  fire_instant_hook_if_due();
  if (now_ < t) now_ = t;
  return count;
}

}  // namespace cbtc::sim
