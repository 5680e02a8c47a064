#include "graph/interference.h"

#include <algorithm>

#include "geom/spatial_grid.h"
#include "util/parallel.h"

namespace cbtc::graph {

namespace {

/// Query buffers reused across a block of edges, instead of three
/// fresh vectors per edge.
struct disk_scratch {
  std::vector<geom::point_index> in_u;
  std::vector<geom::point_index> in_v;
  std::vector<geom::point_index> all;
};

std::size_t disk_union_count(std::span<const geom::vec2> positions, const geom::spatial_grid& grid,
                             node_id u, node_id v, disk_scratch& s) {
  const double len = geom::distance(positions[u], positions[v]);
  s.in_u.clear();
  s.in_v.clear();
  s.all.clear();
  grid.query_radius_into(positions[u], len, geom::spatial_grid::npos, s.in_u);
  grid.query_radius_into(positions[v], len, geom::spatial_grid::npos, s.in_v);
  std::sort(s.in_u.begin(), s.in_u.end());
  std::sort(s.in_v.begin(), s.in_v.end());
  std::set_union(s.in_u.begin(), s.in_u.end(), s.in_v.begin(), s.in_v.end(),
                 std::back_inserter(s.all));
  // Exclude the endpoints themselves.
  return s.all.size() -
         static_cast<std::size_t>(std::binary_search(s.all.begin(), s.all.end(), u)) -
         static_cast<std::size_t>(std::binary_search(s.all.begin(), s.all.end(), v));
}

}  // namespace

std::size_t edge_interference(const undirected_graph& g, std::span<const geom::vec2> positions,
                              node_id u, node_id v) {
  (void)g;
  const double len = geom::distance(positions[u], positions[v]);
  const geom::spatial_grid grid(positions, std::max(len, 1.0));
  disk_scratch scratch;
  return disk_union_count(positions, grid, u, v, scratch);
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
        disk_scratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::size_t c = disk_union_count(positions, grid, edges[i].u, edges[i].v, scratch);
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
