#include "sim/medium.h"

#include <utility>

namespace cbtc::sim {

/// One transmission: its header and payload, stored once for all of
/// its receivers, plus the reception metadata of every scheduled copy
/// (the receiver's id rides in the copy's delivery event).
struct medium::transmission {
  struct copy {
    double rx_power;
    double direction;
  };

  medium* owner;
  node_id sender;
  /// Copies scheduled but not yet run; the sender reuses the record
  /// only at zero. Deliveries release their reads, the sender acquires.
  std::atomic<std::uint32_t> pending{0};
  double tx_power{0.0};
  std::any payload;
  std::vector<copy> copies;
};

medium::medium(simulator& sim, radio::link_model lm, radio::channel ch,
               radio::direction_estimator de)
    : sim_(sim), link_(std::move(lm)), channel_(std::move(ch)), direction_(std::move(de)) {}

medium::~medium() = default;

node_id medium::add_node(const geom::vec2& position, rx_handler handler) {
  const auto id = static_cast<node_id>(positions_.size());
  positions_.push_back(position);
  handlers_.push_back(std::move(handler));
  up_.push_back(true);
  node_energy_.push_back(0.0);
  node_tx_seq_.push_back(0);
  records_.emplace_back();
  return id;
}

medium::transmission& medium::open(node_id from, double tx_power, std::any payload) {
  std::vector<std::unique_ptr<transmission>>& pool = records_[from];
  transmission* tx = nullptr;
  for (const std::unique_ptr<transmission>& r : pool) {
    if (r->pending.load(std::memory_order_acquire) == 0) {
      tx = r.get();
      break;
    }
  }
  if (tx == nullptr) {
    pool.push_back(std::make_unique<transmission>());
    tx = pool.back().get();
    tx->owner = this;
    tx->sender = from;
  }
  tx->tx_power = tx_power;
  tx->payload = std::move(payload);
  tx->copies.clear();
  return *tx;
}

void medium::offer(transmission& tx, std::uint64_t tx_seq, node_id to, double distance,
                   double gain) {
  // Gain-adjusted reception power: the receiver's estimate tx/rx then
  // equals the true per-link required power p(d)/gain, so the
  // protocol's power arithmetic works unchanged under any model.
  const std::optional<double> rx_power = link_.power().receive(tx.tx_power, distance, gain);
  if (!rx_power) return;  // out of range: radio silence
  const radio::delivery_delays delays = channel_.sample_deliveries(distance);
  if (delays.empty()) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::uint32_t copy = 0;
  for (const double delay : delays) {
    const auto index = static_cast<std::uint32_t>(tx.copies.size());
    tx.copies.push_back({*rx_power, direction_.measure(positions_[to], positions_[tx.sender])});
    // Trivially copyable and 16 bytes: std::function keeps it inline.
    sim_.schedule_delivery(sim_.now() + delay, to, tx.sender, tx_seq, copy++,
                           [rec = &tx, index, to] { rec->owner->deliver(*rec, index, to); });
  }
}

void medium::seal(transmission& tx) {
  // The engine never runs an event while its creator is still running, so
  // publishing the count after scheduling is early enough.
  tx.pending.store(static_cast<std::uint32_t>(tx.copies.size()), std::memory_order_relaxed);
}

void medium::broadcast(node_id from, double tx_power, std::any payload) {
  if (!up_[from]) return;
  broadcasts_.fetch_add(1, std::memory_order_relaxed);
  node_energy_[from] += tx_power;
  const std::uint64_t tx_seq = node_tx_seq_[from]++;
  transmission& tx = open(from, tx_power, std::move(payload));
  const geom::vec2 origin = positions_[from];
  const auto try_deliver = [&](node_id to, const double* cached_gain) {
    if (to == from || !up_[to]) return;
    const geom::vec2& at = positions_[to];
    const double gain = cached_gain != nullptr ? *cached_gain
                        : link_.is_isotropic() ? 1.0
                                               : link_.gain(from, to, origin, at);
    offer(tx, tx_seq, to, geom::distance(origin, at), gain);
  };
  if (directory_) {
    // Directory candidates come sorted ascending, so delivery order
    // matches the full scan's to = 0..n sweep exactly.
    const neighborhood nb = directory_(from);
    for (std::size_t k = 0; k < nb.nodes.size(); ++k) {
      try_deliver(nb.nodes[k], nb.gains.empty() ? nullptr : &nb.gains[k]);
    }
  } else {
    for (node_id to = 0; to < positions_.size(); ++to) try_deliver(to, nullptr);
  }
  seal(tx);
}

void medium::unicast(node_id from, node_id to, double tx_power, std::any payload) {
  if (!up_[from]) return;
  unicasts_.fetch_add(1, std::memory_order_relaxed);
  node_energy_[from] += tx_power;
  const std::uint64_t tx_seq = node_tx_seq_[from]++;
  transmission& tx = open(from, tx_power, std::move(payload));
  if (to < positions_.size() && up_[to]) {
    const geom::vec2& origin = positions_[from];
    const geom::vec2& at = positions_[to];
    offer(tx, tx_seq, to, geom::distance(origin, at),
          link_.is_isotropic() ? 1.0 : link_.gain(from, to, origin, at));
  }
  seal(tx);
}

void medium::deliver(transmission& tx, std::uint32_t copy, node_id to) {
  if (up_[to]) {  // otherwise crashed while in flight
    const rx_info info{.sender = tx.sender,
                       .tx_power = tx.tx_power,
                       .rx_power = tx.copies[copy].rx_power,
                       .direction = tx.copies[copy].direction,
                       .time = sim_.now()};
    deliveries_.fetch_add(1, std::memory_order_relaxed);
    if (handlers_[to]) handlers_[to](info, tx.payload);
  }
  // Last read of the record: from here on its sender may reuse it.
  tx.pending.fetch_sub(1, std::memory_order_release);
}

medium_stats medium::stats() const {
  medium_stats s;
  s.broadcasts = broadcasts_.load(std::memory_order_relaxed);
  s.unicasts = unicasts_.load(std::memory_order_relaxed);
  s.deliveries = deliveries_.load(std::memory_order_relaxed);
  s.drops = drops_.load(std::memory_order_relaxed);
  double energy = 0.0;
  for (const double e : node_energy_) energy += e;
  s.tx_energy = energy;
  return s;
}

}  // namespace cbtc::sim
