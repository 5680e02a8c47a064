#include "graph/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "graph/shortest_path.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace cbtc::graph {

double average_degree(const undirected_graph& g) {
  if (g.num_nodes() == 0) return 0.0;
  return 2.0 * static_cast<double>(g.num_edges()) / static_cast<double>(g.num_nodes());
}

double node_radius(const undirected_graph& g, std::span<const geom::vec2> positions, node_id u,
                   double isolated_radius) {
  double r = 0.0;
  bool any = false;
  for (node_id v : g.neighbors(u)) {
    r = std::max(r, geom::distance(positions[u], positions[v]));
    any = true;
  }
  return any ? r : isolated_radius;
}

double average_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                      double isolated_radius) {
  if (g.num_nodes() == 0) return 0.0;
  double total = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    total += node_radius(g, positions, u, isolated_radius);
  }
  return total / static_cast<double>(g.num_nodes());
}

double max_radius(const undirected_graph& g, std::span<const geom::vec2> positions,
                  double isolated_radius) {
  double r = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    r = std::max(r, node_radius(g, positions, u, isolated_radius));
  }
  return r;
}

std::vector<std::size_t> degree_histogram(const undirected_graph& g) {
  std::size_t max_deg = 0;
  for (node_id u = 0; u < g.num_nodes(); ++u) max_deg = std::max(max_deg, g.degree(u));
  std::vector<std::size_t> hist(max_deg + 1, 0);
  for (node_id u = 0; u < g.num_nodes(); ++u) ++hist[g.degree(u)];
  return hist;
}

double average_power(const undirected_graph& g, std::span<const geom::vec2> positions,
                     double exponent, double isolated_radius) {
  if (g.num_nodes() == 0) return 0.0;
  double total = 0.0;
  for (node_id u = 0; u < g.num_nodes(); ++u) {
    total += std::pow(node_radius(g, positions, u, isolated_radius), exponent);
  }
  return total / static_cast<double>(g.num_nodes());
}

namespace {

/// Distances from one source, +infinity where unreachable.
using sssp_fn = std::function<std::vector<double>(const undirected_graph&, node_id)>;

stretch_stats stretch_impl(const undirected_graph& sparse, const undirected_graph& dense,
                           std::size_t sample_sources, const util::thread_pool& pool,
                           const sssp_fn& sssp) {
  stretch_stats stats;
  const std::size_t n = dense.num_nodes();
  if (n == 0 || sample_sources == 0) return stats;
  // Deterministic sampling: evenly spaced source ids.
  const std::size_t step = n / std::min(sample_sources, n);
  const std::size_t sources = (n + step - 1) / step;

  // One slot per source: ratios[i][t] is the stretch of pair
  // (i * step, t), NaN where the pair does not count.
  std::vector<std::vector<double>> ratios(sources);
  pool.parallel_for_chunks(sources, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const auto s = static_cast<node_id>(i * step);
      const std::vector<double> dd = sssp(dense, s);
      std::vector<double> ratio = sssp(sparse, s);
      for (std::size_t t = 0; t < n; ++t) {
        // Skipped: the source itself, pairs unreachable in the dense
        // graph, and connectivity violations (unreachable in sparse).
        const bool counted =
            t != s && std::isfinite(dd[t]) && dd[t] > 0.0 && std::isfinite(ratio[t]);
        ratio[t] = counted ? ratio[t] / dd[t] : std::numeric_limits<double>::quiet_NaN();
      }
      ratios[i] = std::move(ratio);
    }
  });

  // Serial fold in (source, target) order: the sums a single thread
  // would form, whatever the pool width.
  double total = 0.0;
  double worst = 1.0;
  std::size_t pairs = 0;
  for (const std::vector<double>& per_source : ratios) {
    for (const double ratio : per_source) {
      if (std::isnan(ratio)) continue;
      total += ratio;
      worst = std::max(worst, ratio);
      ++pairs;
    }
  }
  if (pairs > 0) {
    stats.mean = total / static_cast<double>(pairs);
    stats.max = worst;
    stats.pairs = pairs;
  }
  return stats;
}

std::vector<double> bfs_as_double(const undirected_graph& g, node_id s) {
  const std::vector<std::uint32_t> d = bfs_distances(g, s);
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i] = d[i] == std::numeric_limits<std::uint32_t>::max()
                 ? std::numeric_limits<double>::infinity()
                 : static_cast<double>(d[i]);
  }
  return out;
}

}  // namespace

stretch_stats power_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                            const std::vector<geom::vec2>& positions, double exponent,
                            std::size_t sample_sources, const util::thread_pool& pool) {
  const edge_cost_fn cost = power_cost(positions, exponent);
  return stretch_impl(sparse, dense, sample_sources, pool,
                      [&cost](const undirected_graph& g, node_id s) { return dijkstra(g, s, cost); });
}

stretch_stats hop_stretch(const undirected_graph& sparse, const undirected_graph& dense,
                          std::size_t sample_sources, const util::thread_pool& pool) {
  return stretch_impl(sparse, dense, sample_sources, pool, bfs_as_double);
}

}  // namespace cbtc::graph
