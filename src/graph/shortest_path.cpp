#include "graph/shortest_path.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace cbtc::graph {

namespace {

/// Dijkstra's frontier: a binary min-heap of node ids ordered by
/// (dist[v], v), each node held at most once and moved up in place when
/// its distance drops. It pops nodes in the same (distance, id) order
/// as a lazy-deletion heap of (distance, id) pairs, minus that heap's
/// stale entries (one per improvement, each popped and discarded).
class frontier {
 public:
  explicit frontier(const std::vector<double>& dist) : dist_(dist), slot_(dist.size(), absent) {}

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Inserts v, or restores heap order after dist[v] decreased.
  void push_or_decrease(node_id v) {
    std::size_t i = slot_[v];
    if (i == absent) {
      i = heap_.size();
      heap_.push_back(v);
    }
    sift_up(i);
  }

  [[nodiscard]] node_id pop() {
    const node_id top = heap_.front();
    slot_[top] = absent;
    const node_id last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(last);
    return top;
  }

 private:
  static constexpr std::uint32_t absent = std::numeric_limits<std::uint32_t>::max();

  [[nodiscard]] bool before(node_id a, node_id b) const {
    return dist_[a] < dist_[b] || (dist_[a] == dist_[b] && a < b);
  }
  void place(std::size_t i, node_id v) {
    heap_[i] = v;
    slot_[v] = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i) {
    const node_id v = heap_[i];
    for (; i > 0 && before(v, heap_[(i - 1) / 2]); i = (i - 1) / 2) place(i, heap_[(i - 1) / 2]);
    place(i, v);
  }
  /// Sinks v from the root into the heap's hole there.
  void sift_down(node_id v) {
    std::size_t i = 0;
    for (std::size_t c = 1; c < heap_.size(); i = c, c = 2 * c + 1) {
      if (c + 1 < heap_.size() && before(heap_[c + 1], heap_[c])) ++c;
      if (!before(heap_[c], v)) break;
      place(i, heap_[c]);
    }
    place(i, v);
  }

  const std::vector<double>& dist_;
  std::vector<std::uint32_t> slot_;  ///< heap index per node, or absent
  std::vector<node_id> heap_;
};

/// The one Dijkstra loop behind dijkstra and dijkstra_tree: strict `<`
/// relaxation, nodes settled in (distance, id) order. `arc_cost(u, v,
/// a)` is the cost of arc a, u -> v (a indexes g's CSR neighbor
/// array). `parent` may be null when only distances are wanted.
///
/// The kernel skips no arc up front: for a settled v, dist[v] <= d <=
/// fl(d + c) whenever c >= 0, so the strict test already rejects the
/// arc. Over an array of costs a "settled?" branch mispredicts on G_R's
/// long neighbor lists more than it saves; a cost callback is dearer
/// than the branch, so dijkstra_tree skips in its adapter.
template <class ArcCost>
void dijkstra_kernel(const undirected_graph& g, node_id from, const ArcCost& arc_cost,
                     std::vector<double>& dist, std::vector<node_id>* parent) {
  dist.assign(g.num_nodes(), std::numeric_limits<double>::infinity());
  if (parent) parent->assign(g.num_nodes(), invalid_node);
  frontier open(dist);
  dist[from] = 0.0;
  open.push_or_decrease(from);
  while (!open.empty()) {
    const node_id u = open.pop();
    const double d = dist[u];
    const std::span<const node_id> nbrs = g.neighbors(u);
    const std::size_t first = g.first_arc(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const node_id v = nbrs[k];
      const double nd = d + arc_cost(u, v, first + k);
      if (nd < dist[v]) {
        dist[v] = nd;
        if (parent) (*parent)[v] = u;
        open.push_or_decrease(v);
      }
    }
  }
}

}  // namespace

std::vector<double> power_arc_costs(const undirected_graph& g,
                                    const std::vector<geom::vec2>& positions, double exponent,
                                    const util::thread_pool& pool) {
  std::vector<double> out(2 * g.num_edges());
  pool.parallel_for(g.num_nodes(), [&](std::size_t i) {
    const auto u = static_cast<node_id>(i);
    const std::span<const node_id> nbrs = g.neighbors(u);
    const std::size_t first = g.first_arc(u);
    // Node u prices its up-arcs u -> v > u and writes each twin v -> u,
    // so every slot has one writer.
    for (auto it = std::upper_bound(nbrs.begin(), nbrs.end(), u); it != nbrs.end(); ++it) {
      const node_id v = *it;
      const double c = std::pow(geom::distance(positions[u], positions[v]), exponent);
      out[first + static_cast<std::size_t>(it - nbrs.begin())] = c;
      const std::span<const node_id> vn = g.neighbors(v);
      out[g.first_arc(v) + static_cast<std::size_t>(std::lower_bound(vn.begin(), vn.end(), u) -
                                                    vn.begin())] = c;
    }
  });
  return out;
}

std::vector<double> dijkstra(const undirected_graph& g, node_id from,
                             std::span<const double> arc_cost) {
  assert(arc_cost.size() == 2 * g.num_edges());
  std::vector<double> dist;
  dijkstra_kernel(
      g, from, [arc_cost](node_id, node_id, std::size_t a) { return arc_cost[a]; }, dist,
      nullptr);
  return dist;
}

shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                 const edge_cost_fn& cost) {
  shortest_path_tree tree;
  // Settled skip: an arc into a node already at distance <= dist[u]
  // (every settled node) cannot pass the strict test, so it is priced
  // +infinity without calling `cost`; d + inf = inf < dist[v] is false,
  // so no bit of dist or parent changes.
  dijkstra_kernel(
      g, from,
      [&cost, &dist = tree.dist](node_id u, node_id v, std::size_t) {
        return dist[v] <= dist[u] ? std::numeric_limits<double>::infinity() : cost(u, v);
      },
      tree.dist, &tree.parent);
  return tree;
}

}  // namespace cbtc::graph
