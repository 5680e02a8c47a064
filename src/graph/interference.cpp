#include "graph/interference.h"

#include <algorithm>

#include "geom/spatial_grid.h"
#include "util/parallel.h"

namespace cbtc::graph {

namespace {

std::size_t disk_union_count(std::span<const geom::vec2> positions, const geom::spatial_grid& grid,
                             node_id u, node_id v) {
  const double len = geom::distance(positions[u], positions[v]);
  std::vector<geom::point_index> in_u = grid.query_radius(positions[u], len);
  std::vector<geom::point_index> in_v = grid.query_radius(positions[v], len);
  std::sort(in_u.begin(), in_u.end());
  std::sort(in_v.begin(), in_v.end());
  std::vector<geom::point_index> all;
  all.reserve(in_u.size() + in_v.size());
  std::set_union(in_u.begin(), in_u.end(), in_v.begin(), in_v.end(), std::back_inserter(all));
  // Exclude the endpoints themselves.
  return all.size() - static_cast<std::size_t>(std::binary_search(all.begin(), all.end(), u)) -
         static_cast<std::size_t>(std::binary_search(all.begin(), all.end(), v));
}

}  // namespace

std::size_t edge_interference(const undirected_graph& g, std::span<const geom::vec2> positions,
                              node_id u, node_id v) {
  (void)g;
  const double len = geom::distance(positions[u], positions[v]);
  const geom::spatial_grid grid(positions, std::max(len, 1.0));
  return disk_union_count(positions, grid, u, v);
}

interference_stats topology_interference(const undirected_graph& g,
                                         std::span<const geom::vec2> positions,
                                         const util::thread_pool& pool) {
  interference_stats stats;
  const std::vector<edge> edges = g.edges();
  stats.edges = edges.size();
  if (edges.empty() || positions.empty()) return stats;

  double max_len = 1.0;
  for (const edge& e : edges) {
    max_len = std::max(max_len, geom::distance(positions[e.u], positions[e.v]));
  }
  const geom::spatial_grid grid(positions, max_len);

  // Integer counts: the block-ordered sum is exact, and so equal to any
  // other summation order.
  struct coverage {
    std::size_t total{0};
    std::size_t max{0};
  };
  const coverage cov = pool.reduce<coverage>(
      edges.size(), {},
      [&](std::size_t lo, std::size_t hi) {
        coverage part;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t c = disk_union_count(positions, grid, edges[i].u, edges[i].v);
          part.total += c;
          part.max = std::max(part.max, c);
        }
        return part;
      },
      [](coverage& sum, const coverage& part) {
        sum.total += part.total;
        sum.max = std::max(sum.max, part.max);
      });
  stats.max = cov.max;
  stats.mean = static_cast<double>(cov.total) / static_cast<double>(edges.size());
  return stats;
}

}  // namespace cbtc::graph
