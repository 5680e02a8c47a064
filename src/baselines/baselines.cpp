#include "baselines/baselines.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "geom/angle.h"
#include "geom/spatial_grid.h"
#include "graph/euclidean.h"
#include "graph/union_find.h"

namespace cbtc::baselines {

using graph::node_id;

graph::undirected_graph euclidean_mst(std::span<const geom::vec2> positions, double max_range) {
  struct weighted {
    double len_sq;
    node_id u, v;
  };
  std::vector<weighted> edges;
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, max_range);
  for (const graph::edge& e : gr.edges()) {
    edges.push_back({geom::distance_sq(positions[e.u], positions[e.v]), e.u, e.v});
  }
  std::sort(edges.begin(), edges.end(), [](const weighted& a, const weighted& b) {
    return a.len_sq < b.len_sq || (a.len_sq == b.len_sq && std::pair{a.u, a.v} < std::pair{b.u, b.v});
  });

  std::vector<graph::edge> mst;
  graph::union_find uf(positions.size());
  for (const weighted& e : edges) {
    if (uf.unite(e.u, e.v)) mst.push_back({e.u, e.v});
  }
  return graph::undirected_graph::from_edges(positions.size(), std::move(mst));
}

graph::undirected_graph relative_neighborhood_graph(std::span<const geom::vec2> positions,
                                                    double max_range) {
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, max_range);
  std::vector<graph::edge> rng;
  for (const graph::edge& e : gr.edges()) {
    const double d_uv = geom::distance_sq(positions[e.u], positions[e.v]);
    bool blocked = false;
    // A witness must be closer to both endpoints than they are to each
    // other; any such witness is within range of u, so scanning u's
    // G_R neighborhood suffices.
    for (node_id w : gr.neighbors(e.u)) {
      if (w == e.v) continue;
      if (geom::distance_sq(positions[e.u], positions[w]) < d_uv &&
          geom::distance_sq(positions[e.v], positions[w]) < d_uv) {
        blocked = true;
        break;
      }
    }
    if (!blocked) rng.push_back(e);
  }
  return graph::undirected_graph::from_edges(positions.size(), std::move(rng));
}

graph::undirected_graph gabriel_graph(std::span<const geom::vec2> positions, double max_range) {
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, max_range);
  std::vector<graph::edge> gg;
  for (const graph::edge& e : gr.edges()) {
    const geom::vec2 mid = (positions[e.u] + positions[e.v]) / 2.0;
    const double r_sq = geom::distance_sq(positions[e.u], positions[e.v]) / 4.0;
    bool blocked = false;
    // A witness inside the diameter circle is within d(u,v) <= R of u.
    for (node_id w : gr.neighbors(e.u)) {
      if (w == e.v) continue;
      if (geom::distance_sq(positions[w], mid) < r_sq) {
        blocked = true;
        break;
      }
    }
    if (!blocked) gg.push_back(e);
  }
  return graph::undirected_graph::from_edges(positions.size(), std::move(gg));
}

graph::undirected_graph yao_graph(std::span<const geom::vec2> positions, double max_range,
                                  std::size_t cones) {
  if (cones == 0 || positions.empty()) return graph::undirected_graph(positions.size());
  std::vector<graph::edge> yao;
  const geom::spatial_grid grid(positions, max_range);
  const double sector = geom::two_pi / static_cast<double>(cones);

  std::vector<geom::point_index> hits;
  std::vector<node_id> best(cones);
  std::vector<double> best_d(cones);
  for (node_id u = 0; u < positions.size(); ++u) {
    std::fill(best.begin(), best.end(), graph::invalid_node);
    std::fill(best_d.begin(), best_d.end(), 0.0);
    hits.clear();
    grid.query_radius_into(positions[u], max_range, u, hits);
    for (geom::point_index v : hits) {
      const geom::vec2 d = positions[v] - positions[u];
      const auto c = std::min(static_cast<std::size_t>(d.bearing() / sector), cones - 1);
      const double dist = d.norm_sq();
      if (best[c] == graph::invalid_node || dist < best_d[c] ||
          (dist == best_d[c] && v < best[c])) {
        best[c] = v;
        best_d[c] = dist;
      }
    }
    for (node_id v : best) {
      if (v != graph::invalid_node) yao.push_back({u, v});
    }
  }
  return graph::undirected_graph::from_edges(positions.size(), std::move(yao));
}

graph::undirected_graph knn_graph(std::span<const geom::vec2> positions, double max_range,
                                  std::size_t k) {
  if (positions.empty() || k == 0) return graph::undirected_graph(positions.size());
  std::vector<graph::edge> knn;
  const geom::spatial_grid grid(positions, max_range);
  std::vector<geom::point_index> hits;
  for (node_id u = 0; u < positions.size(); ++u) {
    hits.clear();
    grid.query_radius_into(positions[u], max_range, u, hits);
    std::sort(hits.begin(), hits.end(), [&](geom::point_index a, geom::point_index b) {
      const double da = geom::distance_sq(positions[u], positions[a]);
      const double db = geom::distance_sq(positions[u], positions[b]);
      return da < db || (da == db && a < b);
    });
    const std::size_t take = std::min(k, hits.size());
    for (std::size_t i = 0; i < take; ++i) knn.push_back({u, hits[i]});
  }
  return graph::undirected_graph::from_edges(positions.size(), std::move(knn));
}

}  // namespace cbtc::baselines
