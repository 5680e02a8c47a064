// Incrementally maintained live max-power graph G_R.
//
// Dynamic runs used to rebuild the full max-power graph from scratch
// at every metric sample. live_neighbor_index instead maintains the
// live G_R — nodes that are up, edges between live nodes at distance
// <= max_range — incrementally from the event stream (mobility moves,
// crashes, restarts), each update costing O(neighborhood) via a
// mutable spatial grid. The maintained edge set is exactly
// build_max_power_graph(positions, R).induced(up): same arithmetic,
// same inclusive <= comparison (tests assert edge identity after
// arbitrary event sequences).
//
// connectivity_monitor sits on top and answers "is the live field one
// component?" at event granularity: edge additions are united into a
// union-find immediately; removals (and liveness changes) mark it
// stale and the next query rebuilds from the maintained adjacency —
// O(n + m) without any geometry, far cheaper than a graph rebuild.
// This is what turns sample-granularity partition detection into
// exact disruption windows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "geom/dynamic_grid.h"
#include "geom/vec2.h"
#include "graph/graph.h"
#include "graph/traversal.h"
#include "graph/types.h"
#include "graph/union_find.h"
#include "radio/propagation.h"

namespace cbtc::graph {

class live_neighbor_index {
 public:
  /// Called for every edge delta: (u, v, true) when {u, v} appears,
  /// (u, v, false) when it disappears. u < v always.
  using edge_observer = std::function<void(node_id, node_id, bool)>;

  /// Builds the index over `positions`, all nodes initially up.
  live_neighbor_index(std::span<const geom::vec2> positions, double max_range);

  /// Gain-aware index: maintains the live *link-model* G_R — edges are
  /// links that close at maximum power. The grid prunes by the longest
  /// feasible link; every candidate is filtered per link. With
  /// isotropic propagation this is the distance index above, edge for
  /// edge.
  live_neighbor_index(std::span<const geom::vec2> positions, const radio::link_model& link);

  /// Moves live node `u` (no-op edge-wise when nothing enters or
  /// leaves its range).
  void move(node_id u, const geom::vec2& p);

  /// Marks `u` down and drops its incident edges.
  void erase(node_id u);

  /// Marks `u` up again at position `p` and restores its edges.
  void insert(node_id u, const geom::vec2& p);

  [[nodiscard]] bool is_live(node_id u) const { return live_[u]; }
  [[nodiscard]] std::size_t num_nodes() const { return live_.size(); }
  [[nodiscard]] std::size_t live_count() const { return live_count_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Bumped by every edge delta and liveness flip. A move that left
  /// the version unchanged provably changed neither the live G_R nor
  /// the live set, so observers can skip re-evaluating connectivity.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  [[nodiscard]] const geom::vec2& position(node_id u) const { return positions_[u]; }

  /// Sorted live neighbors of `u` (empty when down).
  [[nodiscard]] std::span<const node_id> neighbors(node_id u) const { return adj_[u]; }

  /// Snapshot as an undirected_graph (down nodes isolated); edge-set
  /// identical to build_max_power_graph(positions, R).induced(up).
  [[nodiscard]] undirected_graph graph() const;

  /// Installs the (single) edge observer. Pass {} to detach.
  void set_observer(edge_observer obs) { observer_ = std::move(obs); }

  /// Called after a liveness flip: (u, true) on insert, (u, false) on
  /// erase. Edge deltas for the flip arrive through the edge observer.
  using node_observer = std::function<void(node_id, bool)>;
  void set_node_observer(node_observer obs) { node_observer_ = std::move(obs); }

  /// Gain-cache telemetry (always zero for distance indexes): every
  /// per-link filter is one lookup; misses are the lookups that had to
  /// evaluate the propagation model.
  [[nodiscard]] std::uint64_t gain_lookups() const { return gain_lookups_; }
  [[nodiscard]] std::uint64_t gain_misses() const { return gain_misses_; }

  /// Per-region churn telemetry for the partitioned dynamic engine:
  /// once a region map is installed (one region id per node; the
  /// engine keeps it in sync as nodes migrate), every index mutation —
  /// live move, erase, insert — is counted against the node's current
  /// region, so tests and benches can see where the field actually
  /// churned.
  void set_region_map(std::vector<std::uint32_t> map, std::uint32_t regions) {
    region_map_ = std::move(map);
    region_churn_.assign(regions, 0);
  }
  void set_node_region(node_id u, std::uint32_t region) {
    if (u < region_map_.size()) region_map_[u] = region;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& region_churn() const { return region_churn_; }

 private:
  /// Shared constructor body: populates the grid and links every
  /// reachable pair exactly once (query before insert).
  void build();
  void link(node_id u, node_id v);
  void unlink(node_id u, node_id v);
  /// Drops grid candidates whose link does not close, in place (no-op
  /// for distance indexes — the grid query radius already decided).
  /// Sorts `candidates` and merge-scans them against the node's gain
  /// row, so hits cost a sequential L1 read instead of a hash probe
  /// (point-lookup tables measured *slower* than recomputing a
  /// shadowing gain — random probes miss CPU cache; the rows don't).
  /// The cached gain then flows through arithmetic identical to
  /// link_model::reaches_at, so verdicts match the uncached filter bit
  /// for bit.
  void filter_reachable(node_id u, std::vector<geom::point_index>& candidates) const;

  /// One cached link gain of the row's owner `u`: gain({u, v}) as
  /// computed when `v`'s position epoch was `peer_epoch` (epochs only
  /// engage for obstacle fields; shadowing gains are id-pure and never
  /// stale — a move of `u` itself clears its whole row instead).
  /// `d2_in` / `d2_out` invert the max-power budget into squared
  /// feasible-distance bounds for this gain (with a conservative 1e-6
  /// relative band): candidates whose squared distance falls below /
  /// above them are accepted / rejected without evaluating `pow` or a
  /// square root; only the thin band in between pays the exact
  /// reaches_at arithmetic, so verdicts stay bitwise-identical.
  struct gain_entry {
    node_id v;
    double gain;
    std::uint64_t peer_epoch;
    double d2_in;
    double d2_out;
  };

  double max_range_;
  std::optional<radio::link_model> link_;  // engaged only for non-isotropic models
  bool position_dependent_gain_{false};    // obstacle fields: gains move with nodes
  mutable std::vector<std::vector<gain_entry>> gain_rows_;  // sorted by v; per query node
  mutable std::vector<gain_entry> row_scratch_;
  mutable std::uint64_t gain_lookups_{0};
  mutable std::uint64_t gain_misses_{0};
  std::vector<std::uint64_t> pos_epoch_;  // engaged only with position-dependent gains
  std::uint64_t version_{0};
  geom::dynamic_grid grid_;
  std::vector<geom::vec2> positions_;
  std::vector<bool> live_;
  std::size_t live_count_{0};
  std::size_t num_edges_{0};
  std::vector<std::vector<node_id>> adj_;  // sorted, live endpoints only
  edge_observer observer_;
  node_observer node_observer_;
  void note_churn(node_id u) {
    if (u < region_map_.size()) ++region_churn_[region_map_[u]];
  }
  std::vector<std::uint32_t> region_map_;
  std::vector<std::uint64_t> region_churn_;
  std::vector<geom::point_index> scratch_;
};

/// Incremental mirror of a symmetric-closure topology built from
/// per-node *directed* neighbor-table deltas plus liveness flips.
///
/// The dynamic engine's agents each own a neighbor table (the directed
/// relation N_alpha under reconfiguration); the observable topology is
/// the symmetric closure over live nodes: edge {u, v} iff u and v are
/// both up and at least one of them has the other in its table. The
/// engine used to recompute that closure from scratch — iterating all
/// n agent tables, O(n + m) map walks plus per-edge sorted inserts —
/// at every connectivity evaluation. closure_mirror instead keeps a
/// per-pair arc count (0..2) updated from the agents' table hooks, so
/// each table delta costs O(degree) and a closure snapshot is a plain
/// filtered copy of sorted adjacency (adopted wholesale, no per-edge
/// insertion). Snapshots are edge-identical to the full re-read by
/// construction (asserted against a re-read of the agents' tables in
/// tests/proto_reconfig_test.cpp).
class closure_mirror {
 public:
  /// All nodes initially up, no arcs.
  explicit closure_mirror(std::size_t n);

  /// Node `u`'s table gained / lost `v` (directed). Counts are
  /// per unordered pair; both orders may be added independently.
  void add_arc(node_id u, node_id v);
  void remove_arc(node_id u, node_id v);

  /// Liveness flip; arcs are kept (a down node's table survives a
  /// crash — exactly like the agents' own state).
  void set_live(node_id u, bool up);

  [[nodiscard]] std::size_t num_nodes() const { return live_.size(); }
  [[nodiscard]] bool is_live(node_id u) const { return live_[u]; }

  /// The live symmetric closure: nodes that are down are isolated.
  [[nodiscard]] undirected_graph live_graph() const;

  /// Calls `f(v)` for every live neighbor of `u` (ascending v; nothing
  /// when `u` is down). This is the in-place adjacency view the
  /// connectivity comparison below reads — no snapshot graph needed.
  template <class F>
  void for_each_live_neighbor(node_id u, F&& f) const {
    if (!live_[u]) return;
    for (const entry& e : adj_[u]) {
      if (live_[e.v]) f(e.v);
    }
  }

 private:
  struct entry {
    node_id v;
    std::uint8_t arcs;  // directed arcs between the pair (1 or 2)
  };

  std::vector<std::vector<entry>> adj_;  // sorted by v
  std::vector<bool> live_;
};

/// In-place connectivity-preservation check: compares the partition of
/// the mirrored closure topology against the live G_R index without
/// materializing either graph — the allocation-free path the dynamic
/// engine runs at every topology-changing event (dense-churn runs used
/// to copy both graphs per evaluation). Verdict identical to
/// same_connectivity(mirror.live_graph(), index.graph(), ...).
[[nodiscard]] bool same_connectivity(const closure_mirror& topology,
                                     const live_neighbor_index& max_power,
                                     connectivity_scratch& scratch);

/// Event-driven union-find connectivity monitor over a
/// live_neighbor_index (see header comment). Installs itself as the
/// index's edge observer; the index must outlive the monitor.
class connectivity_monitor {
 public:
  explicit connectivity_monitor(live_neighbor_index& index);

  /// True when every live node lies in one component of the live G_R
  /// (trivially true for fewer than two live nodes). Amortized O(1)
  /// while edges only appear; O(n + m) rebuild after a removal.
  [[nodiscard]] bool connected();

 private:
  void rebuild();

  live_neighbor_index& index_;
  union_find uf_;
  std::size_t live_at_build_{0};
  bool stale_{true};
};

}  // namespace cbtc::graph
