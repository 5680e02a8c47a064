#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <limits>

#include "util/parallel.h"

namespace cbtc::graph {

component_labels connected_components(const undirected_graph& g) {
  const std::size_t n = g.num_nodes();
  component_labels result;
  result.label.assign(n, invalid_node);

  std::deque<node_id> queue;
  for (node_id start = 0; start < n; ++start) {
    if (result.label[start] != invalid_node) continue;
    const auto comp = static_cast<node_id>(result.count++);
    result.label[start] = comp;
    queue.push_back(start);
    while (!queue.empty()) {
      const node_id u = queue.front();
      queue.pop_front();
      for (node_id v : g.neighbors(u)) {
        if (result.label[v] == invalid_node) {
          result.label[v] = comp;
          queue.push_back(v);
        }
      }
    }
  }
  return result;
}

bool is_connected(const undirected_graph& g) {
  return connected_components(g).count <= 1;
}

bool reachable(const undirected_graph& g, node_id u, node_id v) {
  return connected_components(g).same_component(u, v);
}

bool same_connectivity(const undirected_graph& a, const undirected_graph& b,
                       const util::thread_pool& pool) {
  if (a.num_nodes() != b.num_nodes()) return false;
  const auto view = [](const undirected_graph& g) {
    return [&g](node_id u, auto&& emit) {
      for (const node_id v : g.neighbors(u)) emit(v);
    };
  };
  component_forest fa;
  component_forest fb;
  fa.build(a.num_nodes(), view(a));
  fb.build(b.num_nodes(), view(b));
  return same_partition(fa, view(a), fb, pool);
}

std::vector<std::uint32_t> bfs_distances(const undirected_graph& g, node_id from) {
  constexpr auto inf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(g.num_nodes(), inf);
  // Each node enters once, so a vector read front to back is the FIFO.
  std::vector<node_id> queue;
  queue.reserve(g.num_nodes());
  dist[from] = 0;
  queue.push_back(from);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const node_id u = queue[head];
    for (node_id v : g.neighbors(u)) {
      if (dist[v] == inf) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

std::vector<node_id> bfs_path(const undirected_graph& g, node_id from, node_id to) {
  std::vector<node_id> parent(g.num_nodes(), invalid_node);
  std::vector<char> seen(g.num_nodes(), 0);
  std::deque<node_id> queue;
  seen[from] = 1;
  queue.push_back(from);
  while (!queue.empty() && !seen[to]) {
    const node_id u = queue.front();
    queue.pop_front();
    for (node_id v : g.neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  if (!seen[to]) return {};
  std::vector<node_id> path;
  for (node_id cur = to; cur != invalid_node; cur = parent[cur]) {
    path.push_back(cur);
    if (cur == from) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace cbtc::graph
