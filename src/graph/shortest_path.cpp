#include "graph/shortest_path.h"

#include <cmath>
#include <cstdint>
#include <limits>

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
/// relaxation, nodes settled in (distance, id) order. `parent` may be
/// null when only distances are wanted.
void dijkstra_kernel(const undirected_graph& g, node_id from, const edge_cost_fn& cost,
                     std::vector<double>& dist, std::vector<node_id>* parent) {
  dist.assign(g.num_nodes(), std::numeric_limits<double>::infinity());
  if (parent) parent->assign(g.num_nodes(), invalid_node);
  frontier open(dist);
  dist[from] = 0.0;
  open.push_or_decrease(from);
  while (!open.empty()) {
    const node_id u = open.pop();
    const double d = dist[u];
    for (node_id v : g.neighbors(u)) {
      // Settled skip: costs are non-negative and rounding is monotone,
      // so d + cost(u, v) >= d, and an arc into a node already at
      // distance <= d (every settled node) can never pass the strict
      // test below. Skipping it saves the cost call and changes no bit
      // of dist or parent.
      if (dist[v] <= d) continue;
      const double nd = d + cost(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        if (parent) (*parent)[v] = u;
        open.push_or_decrease(v);
      }
    }
  }
}

}  // namespace

std::vector<double> dijkstra(const undirected_graph& g, node_id from, const edge_cost_fn& cost) {
  std::vector<double> dist;
  dijkstra_kernel(g, from, cost, dist, nullptr);
  return dist;
}

shortest_path_tree dijkstra_tree(const undirected_graph& g, node_id from,
                                 const edge_cost_fn& cost) {
  shortest_path_tree tree;
  dijkstra_kernel(g, from, cost, tree.dist, &tree.parent);
  return tree;
}

edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions) {
  return [&positions](node_id u, node_id v) {
    return geom::distance(positions[u], positions[v]);
  };
}

edge_cost_fn power_cost(const std::vector<geom::vec2>& positions, double exponent) {
  return [&positions, exponent](node_id u, node_id v) {
    return std::pow(geom::distance(positions[u], positions[v]), exponent);
  };
}

}  // namespace cbtc::graph
