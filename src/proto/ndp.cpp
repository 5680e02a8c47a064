#include "proto/ndp.h"

#include <utility>

#include "geom/angle.h"

namespace cbtc::proto {

ndp_agent::ndp_agent(sim::medium& m, node_id self, const ndp_config& cfg,
                     std::function<double()> beacon_power)
    : medium_(m), self_(self), cfg_(cfg), beacon_power_(std::move(beacon_power)) {}

void ndp_agent::start(sim::time_point until) {
  const double first = cfg_.beacon_interval * cfg_.phase_offset;
  medium_.schedule_self(self_, first, [this, until] { tick(until); });
}

void ndp_agent::tick(sim::time_point until) {
  if (!medium_.is_up(self_)) {
    // A crashed node stops beaconing; if it restarts, keep the ticks
    // going so it re-announces itself (schedule below).
  } else {
    // One power per beacon: beacon_power_ walks the agent's acked map.
    const double power = beacon_power_();
    medium_.broadcast(self_, power, message{beacon_msg{self_, power, seq_++}});
    ++beacons_sent_;
    sweep();
  }
  if (medium_.sim().now() + cfg_.beacon_interval <= until) {
    medium_.schedule_self(self_, cfg_.beacon_interval, [this, until] { tick(until); });
  }
}

void ndp_agent::sweep() {
  const sim::time_point now = medium_.sim().now();
  const double tau = cfg_.beacon_interval * cfg_.miss_limit;
  // In place, in ascending id order: erase, then report the leave.
  for (auto it = table_.begin(); it != table_.end();) {
    if (now - it->second.last_heard > tau) {
      const node_id v = it->first;
      it = table_.erase(it);
      if (on_leave) on_leave(v);
    } else {
      ++it;
    }
  }
}

void ndp_agent::handle(const sim::rx_info& rx, const beacon_msg& beacon) {
  ndp_entry entry;
  entry.direction = rx.direction;
  entry.required_power = medium_.power().estimate_required_power(beacon.tx_power, rx.rx_power);
  entry.last_heard = rx.time;

  const auto it = table_.find(beacon.sender);
  if (it == table_.end()) {
    table_.emplace(beacon.sender, entry);
    if (on_join) on_join(beacon.sender, entry);
    return;
  }
  const bool moved = geom::angle_dist(it->second.direction, entry.direction) > cfg_.achange_threshold;
  it->second = entry;
  if (moved && on_achange) on_achange(beacon.sender, entry);
}

}  // namespace cbtc::proto
