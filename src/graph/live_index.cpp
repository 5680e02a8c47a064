#include "graph/live_index.h"

#include <algorithm>
#include <stdexcept>

namespace cbtc::graph {

live_neighbor_index::live_neighbor_index(std::span<const geom::vec2> positions, double max_range)
    : max_range_(max_range),
      grid_(max_range > 0.0 ? max_range : 1.0),
      positions_(positions.begin(), positions.end()),
      live_(positions.size(), true),
      live_count_(positions.size()),
      adj_(positions.size()) {
  build();
}

live_neighbor_index::live_neighbor_index(std::span<const geom::vec2> positions,
                                         const radio::link_model& lm)
    : max_range_(lm.max_candidate_range()),
      link_(lm.is_isotropic() ? std::nullopt : std::optional<radio::link_model>(lm)),
      grid_(lm.max_candidate_range() > 0.0 ? lm.max_candidate_range() : 1.0),
      positions_(positions.begin(), positions.end()),
      live_(positions.size(), true),
      live_count_(positions.size()),
      adj_(positions.size()) {
  if (link_) {
    position_dependent_gain_ =
        link_->propagation().kind() == radio::propagation_kind::obstacle_field;
    if (position_dependent_gain_) pos_epoch_.assign(positions_.size(), 0);
    gain_rows_.resize(positions_.size());
  }
  build();
}

void live_neighbor_index::build() {
  if (max_range_ <= 0.0) return;  // degenerate radio: no edges ever
  // Insert points one at a time and query before inserting, so every
  // reachable pair links exactly once (filter_reachable is a no-op for
  // distance indexes — the query radius already decided).
  for (node_id u = 0; u < positions_.size(); ++u) {
    scratch_.clear();
    grid_.query_radius_into(positions_[u], max_range_, geom::spatial_grid::npos, scratch_);
    filter_reachable(u, scratch_);
    grid_.insert(u, positions_[u]);
    for (const geom::point_index v : scratch_) link(u, v);
  }
}

void live_neighbor_index::filter_reachable(node_id u,
                                           std::vector<geom::point_index>& candidates) const {
  if (!link_) return;  // distance index: the query radius already decided
  std::sort(candidates.begin(), candidates.end());
  std::vector<gain_entry>& row = gain_rows_[u];
  row_scratch_.clear();
  // Same one-ulp tolerance as link_model::reaches_at; the cached gain
  // is the exact double gain() returned, so verdicts are bitwise-
  // identical to the uncached filter.
  const double budget = link_->max_power() * (1.0 + 1e-12);
  // Squared feasible-distance bounds per gain: required_power(d) / g
  // <= budget iff d <= range(budget * g), so a candidate strictly
  // inside (outside) a 1e-6 relative band around that distance is
  // decided from its squared distance alone — no pow, no sqrt. The
  // band dwarfs the few-ulp spread between hypot-based distances and
  // raw squared distances, so only true boundary candidates fall
  // through to the exact legacy arithmetic.
  const auto entry_of = [&](node_id v, double g, std::uint64_t epoch) -> gain_entry {
    const double d_max = link_->power().range(budget * g);
    const double d_in = d_max * (1.0 - 1e-6);
    const double d_out = d_max * (1.0 + 1e-6);
    return {v, g, epoch, d_in * d_in, d_out * d_out};
  };
  std::size_t ri = 0;
  std::size_t out = 0;
  for (const geom::point_index v : candidates) {
    ++gain_lookups_;
    while (ri < row.size() && row[ri].v < v) ++ri;
    const gain_entry* e;
    if (ri < row.size() && row[ri].v == v &&
        (!position_dependent_gain_ || row[ri].peer_epoch == pos_epoch_[v])) {
      e = &row[ri];
    } else {
      ++gain_misses_;
      const double g = link_->gain(u, v, positions_[u], positions_[v]);
      const std::uint64_t epoch = position_dependent_gain_ ? pos_epoch_[v] : 0;
      if (ri < row.size() && row[ri].v == v) {
        row[ri] = entry_of(v, g, epoch);  // stale obstacle gain: refresh in place
        e = &row[ri];
      } else {
        row_scratch_.push_back(entry_of(v, g, epoch));
        e = &row_scratch_.back();
      }
    }
    const double d2 = geom::distance_sq(positions_[u], positions_[v]);
    bool reachable;
    if (d2 <= e->d2_in) {
      reachable = true;
    } else if (d2 > e->d2_out) {
      reachable = false;
    } else {
      const double d = geom::distance(positions_[u], positions_[v]);
      reachable = link_->power().required_power(d) / e->gain <= budget;
    }
    if (reachable) candidates[out++] = v;
  }
  candidates.resize(out);
  if (!row_scratch_.empty()) {
    const std::size_t mid = row.size();
    row.insert(row.end(), row_scratch_.begin(), row_scratch_.end());
    std::inplace_merge(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(mid), row.end(),
                       [](const gain_entry& a, const gain_entry& b) { return a.v < b.v; });
  }
}

void live_neighbor_index::link(node_id u, node_id v) {
  auto& au = adj_[u];
  au.insert(std::lower_bound(au.begin(), au.end(), v), v);
  auto& av = adj_[v];
  av.insert(std::lower_bound(av.begin(), av.end(), u), u);
  ++num_edges_;
  ++version_;
}

void live_neighbor_index::unlink(node_id u, node_id v) {
  auto& au = adj_[u];
  au.erase(std::lower_bound(au.begin(), au.end(), v));
  auto& av = adj_[v];
  av.erase(std::lower_bound(av.begin(), av.end(), u));
  --num_edges_;
  ++version_;
}

void live_neighbor_index::move(node_id u, const geom::vec2& p) {
  positions_[u] = p;
  if (position_dependent_gain_) {
    // Every gain involving u changed: u's own row wholesale, entries
    // for u in other rows lazily via the epoch check.
    ++pos_epoch_[u];
    gain_rows_[u].clear();
  }
  // The medium keeps moving crashed nodes; they re-enter the index at
  // their restart position, so only the stored position updates here.
  if (!live_[u]) return;
  note_churn(u);
  grid_.move(u, p);

  scratch_.clear();
  grid_.query_radius_into(p, max_range_, u, scratch_);
  filter_reachable(u, scratch_);
  std::sort(scratch_.begin(), scratch_.end());

  // Diff the sorted old and new neighbor sets.
  const std::vector<node_id> old = adj_[u];
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < old.size() || j < scratch_.size()) {
    if (j == scratch_.size() || (i < old.size() && old[i] < scratch_[j])) {
      unlink(u, old[i]);
      ++i;
    } else if (i == old.size() || scratch_[j] < old[i]) {
      link(u, scratch_[j]);
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
}

void live_neighbor_index::erase(node_id u) {
  if (!live_[u]) return;
  note_churn(u);
  const std::vector<node_id> nbrs = adj_[u];
  for (const node_id v : nbrs) unlink(u, v);
  grid_.erase(u);
  live_[u] = false;
  --live_count_;
  ++version_;
}

void live_neighbor_index::insert(node_id u, const geom::vec2& p) {
  if (live_[u]) return;
  note_churn(u);
  positions_[u] = p;
  if (position_dependent_gain_) {
    ++pos_epoch_[u];
    gain_rows_[u].clear();
  }
  grid_.insert(u, p);
  live_[u] = true;
  ++live_count_;
  ++version_;
  scratch_.clear();
  grid_.query_radius_into(p, max_range_, u, scratch_);
  filter_reachable(u, scratch_);
  std::sort(scratch_.begin(), scratch_.end());
  for (const geom::point_index v : scratch_) link(u, v);
}

undirected_graph live_neighbor_index::graph() const {
  return assemble<undirected_graph>(
      adj_.size(), [&](node_id u) { return adj_[u].size(); },
      [&](node_id u, std::span<node_id> out) {
        std::copy(adj_[u].begin(), adj_[u].end(), out.begin());
      });
}

closure_mirror::closure_mirror(std::size_t n) : adj_(n), live_(n, true) {}

void closure_mirror::add_arc(node_id u, node_id v) {
  if (u == v) return;
  const auto bump = [](std::vector<entry>& list, node_id w) {
    const auto it = std::lower_bound(list.begin(), list.end(), w,
                                     [](const entry& e, node_id x) { return e.v < x; });
    if (it != list.end() && it->v == w) {
      ++it->arcs;
    } else {
      list.insert(it, {w, 1});
    }
  };
  bump(adj_[u], v);
  bump(adj_[v], u);
}

void closure_mirror::remove_arc(node_id u, node_id v) {
  if (u == v) return;
  const auto drop = [](std::vector<entry>& list, node_id w) {
    const auto it = std::lower_bound(list.begin(), list.end(), w,
                                     [](const entry& e, node_id x) { return e.v < x; });
    if (it == list.end() || it->v != w) return;  // tolerated: erase of unknown arc
    if (--it->arcs == 0) list.erase(it);
  };
  drop(adj_[u], v);
  drop(adj_[v], u);
}

void closure_mirror::set_live(node_id u, bool up) { live_[u] = up; }

undirected_graph closure_mirror::live_graph() const {
  return assemble<undirected_graph>(
      adj_.size(),
      [&](node_id u) {
        std::size_t count = 0;
        for_each_live_neighbor(u, [&](node_id) { ++count; });
        return count;
      },
      [&](node_id u, std::span<node_id> out) {
        std::size_t w = 0;
        for_each_live_neighbor(u, [&](node_id v) { out[w++] = v; });
      });
}

connectivity_verdict evaluate_connectivity(const closure_mirror& topology,
                                           const live_neighbor_index& max_power,
                                           connectivity_scratch& scratch) {
  const std::size_t n = max_power.num_nodes();
  if (topology.num_nodes() != n) {
    throw std::invalid_argument("evaluate_connectivity: the topology and G_R node counts differ");
  }
  const auto closure = [&](node_id u, auto&& emit) { topology.for_each_live_neighbor(u, emit); };
  scratch.topology.build(n, closure);
  scratch.max_power.build(n, [&](node_id u, auto&& emit) {
    for (const node_id v : max_power.neighbors(u)) emit(v);
  });
  return {.preserved = same_partition(scratch.topology, closure, scratch.max_power),
          .field_connected = scratch.max_power.live_nodes_connected(max_power.live_count())};
}

}  // namespace cbtc::graph
