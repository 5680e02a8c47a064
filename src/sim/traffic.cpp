#include "sim/traffic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <utility>

namespace cbtc::sim {

convergecast::convergecast(medium& m, convergecast_config cfg, neighbor_fn neighbors,
                           cost_fn cost)
    : medium_(m),
      cfg_(cfg),
      neighbors_(std::move(neighbors)),
      cost_(std::move(cost)),
      n_(m.num_nodes()),
      next_hop_(n_, graph::invalid_node),
      hop_power_(n_, 0.0),
      queue_(n_),
      service_pending_(n_, 0),
      generated_(n_, 0),
      queue_drops_(n_, 0),
      no_route_drops_(n_, 0),
      dead_drops_(n_, 0),
      forwards_(n_, 0),
      sent_(n_, 0),
      arrived_(n_, 0),
      queue_peak_(n_, 0),
      energy_(n_, 0.0) {}

void convergecast::start() {
  for (node_id u = 0; u < n_; ++u) {
    rx_handler prev = medium_.handler(u);
    medium_.set_handler(
        u, [this, u, prev = std::move(prev)](const rx_info& info, const std::any& payload) {
          if (payload.type() == typeid(packet)) {
            on_receive(u, std::any_cast<const packet&>(payload));
            return;
          }
          if (prev) prev(info, payload);
        });
  }
  medium_.sim().schedule_at(cfg_.start, [this] { refresh_routes(); });
  const time_point first = cfg_.start + cfg_.period;
  if (first > cfg_.until) return;
  for (node_id u = 0; u < n_; ++u) {
    if (u == cfg_.sink) continue;
    medium_.sim().schedule_node(first, u, [this, u] { on_generate(u); });
  }
}

void convergecast::refresh_routes() {
  if (dirty_.exchange(false, std::memory_order_relaxed)) {
    ++route_refreshes_;
    constexpr double inf = std::numeric_limits<double>::infinity();
    dist_.assign(n_, inf);
    std::fill(next_hop_.begin(), next_hop_.end(), graph::invalid_node);
    std::fill(hop_power_.begin(), hop_power_.end(), 0.0);
    using entry = std::pair<double, node_id>;
    std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
    dist_[cfg_.sink] = 0.0;
    heap.push({0.0, cfg_.sink});
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist_[u]) continue;
      neighbors_(u, [&](node_id v) {
        const double w = cost_(v, u);  // v transmits toward the sink via u
        const double nd = d + w;
        if (nd < dist_[v]) {
          dist_[v] = nd;
          next_hop_[v] = u;
          hop_power_[v] = w;
          heap.push({nd, v});
        }
      });
    }
  }
  const time_point next = medium_.sim().now() + cfg_.route_refresh;
  if (next <= cfg_.horizon) medium_.sim().schedule_at(next, [this] { refresh_routes(); });
}

void convergecast::on_generate(node_id u) {
  if (medium_.is_up(u)) {
    ++generated_[u];
    enqueue(u, packet{u, medium_.sim().now()});
    ensure_service(u);
  }
  const time_point next = medium_.sim().now() + cfg_.period;
  if (next <= cfg_.until) medium_.schedule_self(u, cfg_.period, [this, u] { on_generate(u); });
}

void convergecast::enqueue(node_id u, const packet& p) {
  if (queue_[u].size() >= cfg_.queue_capacity) {
    ++queue_drops_[u];
    return;
  }
  queue_[u].push_back(p);
  queue_peak_[u] = std::max<std::uint64_t>(queue_peak_[u], queue_[u].size());
}

void convergecast::ensure_service(node_id u) {
  if (service_pending_[u] || queue_[u].empty()) return;
  service_pending_[u] = 1;
  medium_.schedule_self(u, cfg_.service_time, [this, u] { on_service(u); });
}

void convergecast::on_service(node_id u) {
  service_pending_[u] = 0;
  if (!medium_.is_up(u)) {
    dead_drops_[u] += queue_[u].size();
    queue_[u].clear();
    return;
  }
  if (queue_[u].empty()) return;
  const node_id next = next_hop_[u];
  if (next == graph::invalid_node) {
    ++no_route_drops_[u];
    queue_[u].pop_front();
  } else {
    const packet p = queue_[u].front();
    queue_[u].pop_front();
    ++forwards_[u];
    ++sent_[u];
    energy_[u] += hop_power_[u];
    medium_.unicast(u, next, hop_power_[u], std::any(p));
  }
  ensure_service(u);
}

void convergecast::on_receive(node_id u, const packet& p) {
  ++arrived_[u];
  if (u == cfg_.sink) {
    ++delivered_;
    delay_sum_ += medium_.sim().now() - p.created;
    return;
  }
  enqueue(u, p);
  ensure_service(u);
}

traffic_report convergecast::finish() const {
  traffic_report r{.enabled = true};
  std::uint64_t sent_sum = 0;
  std::uint64_t arrived_sum = 0;
  double energy_sum = 0.0;
  double energy_sq = 0.0;
  for (node_id u = 0; u < n_; ++u) {
    r.generated += generated_[u];
    r.forwards += forwards_[u];
    r.queue_drops += queue_drops_[u];
    r.no_route_drops += no_route_drops_[u];
    r.dead_drops += dead_drops_[u];
    r.queued_at_end += queue_[u].size();
    r.queue_peak = std::max(r.queue_peak, queue_peak_[u]);
    sent_sum += sent_[u];
    arrived_sum += arrived_[u];
    r.forwarding_energy += energy_[u];
    if (u != cfg_.sink) {
      energy_sum += energy_[u];
      energy_sq += energy_[u] * energy_[u];
      r.energy_max = std::max(r.energy_max, energy_[u]);
    }
  }
  r.delivered = delivered_;
  r.route_refreshes = route_refreshes_;
  // Never negative for non-duplicating channels; a duplicating channel
  // can deliver more copies than transmissions, so clamp at zero.
  r.lost_in_air = sent_sum >= arrived_sum ? sent_sum - arrived_sum : 0;
  if (n_ > 1) {
    const double m = energy_sum / static_cast<double>(n_ - 1);
    r.energy_mean = m;
    r.energy_stddev = std::sqrt(std::max(0.0, energy_sq / static_cast<double>(n_ - 1) - m * m));
  }
  r.delivery_ratio = r.generated == 0 ? 0.0
                                      : static_cast<double>(r.delivered) /
                                            static_cast<double>(r.generated);
  const double window = cfg_.horizon - cfg_.start;
  r.throughput = window > 0.0 ? static_cast<double>(r.delivered) / window : 0.0;
  r.avg_delay = r.delivered == 0 ? 0.0 : delay_sum_ / static_cast<double>(r.delivered);
  return r;
}

}  // namespace cbtc::sim
