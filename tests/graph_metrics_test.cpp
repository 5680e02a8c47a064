#include "graph/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/pipeline.h"
#include "digest.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/graph.h"
#include "graph/interference.h"
#include "graph/shortest_path.h"
#include "graph/traversal.h"
#include "graph_fixtures.h"
#include "pinned_fields.h"
#include "shortest_path_reference.h"
#include "radio/power_model.h"
#include "util/parallel.h"

namespace cbtc::graph {
namespace {

TEST(AverageDegree, HandshakeLemma) {
  const undirected_graph g = make_graph(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_DOUBLE_EQ(average_degree(g), 2.0 * 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(average_degree(undirected_graph(0)), 0.0);
}

TEST(NodeRadius, FarthestNeighbor) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 300.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 1), 100.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 2), 300.0);
}

TEST(NodeRadius, IsolatedUsesFallback) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  const undirected_graph g(2);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0, 500.0), 500.0);
  EXPECT_DOUBLE_EQ(node_radius(g, pts, 0), 0.0);
}

TEST(AverageRadius, MeanOfNodeRadii) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(average_radius(g, pts), (300.0 + 100.0 + 300.0) / 3.0);
}

TEST(MaxRadius, LargestAnywhere) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const undirected_graph g = make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_DOUBLE_EQ(max_radius(g, pts), 300.0);
}

TEST(DegreeHistogram, CountsPerDegree) {
  const undirected_graph g = make_graph(4, {{0, 1}, {0, 2}, {0, 3}});
  const auto h = degree_histogram(g);
  ASSERT_EQ(h.size(), 4u);  // max degree 3
  EXPECT_EQ(h[0], 0u);
  EXPECT_EQ(h[1], 3u);
  EXPECT_EQ(h[3], 1u);
}

TEST(AveragePower, QuadraticCost) {
  const std::vector<geom::vec2> pts{{0, 0}, {10, 0}};
  const undirected_graph g = make_graph(2, {{0, 1}});
  EXPECT_DOUBLE_EQ(average_power(g, pts, 2.0), 100.0);
  EXPECT_DOUBLE_EQ(average_power(g, pts, 3.0), 1000.0);
}

// ----------------------------------------------------------- dijkstra

/// Edge cost equal to Euclidean length (hop-length metric).
edge_cost_fn euclidean_cost(const std::vector<geom::vec2>& positions) {
  return [&positions](node_id u, node_id v) {
    return geom::distance(positions[u], positions[v]);
  };
}

TEST(Dijkstra, PowerCostPrefersRelaying) {
  // Quadratic cost makes two 100-hops (2 * 100^2) cheaper than one
  // 200-hop (200^2) — the paper's motivation for topology control.
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}};
  const undirected_graph g = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto d = dijkstra(g, 0, arc_costs(g, power_cost(pts, 2.0)));
  EXPECT_DOUBLE_EQ(d[2], 2.0 * 100.0 * 100.0);
}

TEST(Dijkstra, EuclideanCostPrefersDirect) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 50}, {200, 0}};
  const undirected_graph g = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  const auto d = dijkstra(g, 0, arc_costs(g, euclidean_cost(pts)));
  EXPECT_DOUBLE_EQ(d[2], 200.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  const undirected_graph g = make_graph(3, {{0, 1}});
  const std::vector<geom::vec2> pts{{0, 0}, {1, 0}, {2, 0}};
  const auto d = dijkstra(g, 0, arc_costs(g, euclidean_cost(pts)));
  EXPECT_TRUE(std::isinf(d[2]));
  EXPECT_DOUBLE_EQ(d[0], 0.0);
}

// ------------------------------------------------------------ stretch

TEST(Stretch, IdenticalGraphsHaveUnitStretch) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}, {300, 0}};
  const auto g = build_max_power_graph(pts, 150.0);
  const auto s = power_stretch(g, g, pts, 2.0, pts.size());
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  EXPECT_GT(s.pairs, 0u);
}

TEST(Stretch, RemovingShortcutIncreasesHops) {
  const std::vector<geom::vec2> pts{{0, 0}, {100, 0}, {200, 0}};
  const undirected_graph dense = make_graph(3, {{0, 1}, {1, 2}, {0, 2}});
  const undirected_graph sparse = make_graph(3, {{0, 1}, {1, 2}});
  const auto s = hop_stretch(sparse, dense, 3);
  EXPECT_GT(s.max, 1.0);
  EXPECT_GE(s.mean, 1.0);
}

TEST(Stretch, PowerStretchCanBeBelowOneNever) {
  // The sparse graph is a subgraph, so its optimal routes can never be
  // cheaper; stretch >= 1 always.
  const std::vector<geom::vec2> pts{{0, 0}, {80, 10}, {160, -10}, {240, 0}, {120, 90}};
  const auto dense = build_max_power_graph(pts, 200.0);
  const undirected_graph sparse = make_graph(5, {{0, 1}, {1, 2}, {2, 3}, {1, 4}});
  const auto s = power_stretch(sparse, dense, pts, 2.0, 5);
  EXPECT_GE(s.mean, 1.0 - 1e-12);
  EXPECT_GE(s.max, s.mean);
}

TEST(Stretch, EmptyGraphsYieldDefaults) {
  const std::vector<geom::vec2> pts;
  const auto s = power_stretch(undirected_graph(0), undirected_graph(0), pts, 2.0);
  EXPECT_DOUBLE_EQ(s.mean, 1.0);
  EXPECT_EQ(s.pairs, 0u);
}

/// An n-node path with 100-unit hops: every pair is connected.
std::vector<geom::vec2> line_points(std::size_t n) {
  std::vector<geom::vec2> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back({100.0 * static_cast<double>(i), 0.0});
  return pts;
}

TEST(Stretch, ZeroSamplesYieldDefaults) {
  // k = 0 samples no source: the default stats, not a division by zero.
  const std::vector<geom::vec2> pts = line_points(20);
  const undirected_graph g = build_max_power_graph(pts, 150.0);
  util::thread_pool pool(4);
  for (const stretch_stats& s :
       {power_stretch(g, g, pts, 2.0, 0), power_stretch(g, g, pts, 2.0, 0, pool),
        hop_stretch(g, g, 0), hop_stretch(g, g, 0, pool)}) {
    EXPECT_EQ(s.mean, 1.0);
    EXPECT_EQ(s.max, 1.0);
    EXPECT_EQ(s.pairs, 0u);
  }
}

TEST(Stretch, SampleSourcesIsNotASourceCount) {
  // Sources are every floor(n/k)-th id, so k = 8 on the paper's 100
  // nodes runs 9 sources (0, 12, ..., 96), and k can run up to 2k - 1.
  // Every pair on a connected path counts: pairs = sources * (n - 1).
  struct sampling {
    std::size_t n, k, sources;
  };
  for (const sampling c : {sampling{100, 8, 9}, sampling{100, 7, 8}, sampling{100, 1, 1},
                           sampling{100, 100, 100}, sampling{100, 500, 100},
                           sampling{15, 8, 15}}) {
    const std::vector<geom::vec2> pts = line_points(c.n);
    const undirected_graph g = build_max_power_graph(pts, 150.0);
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " k=" << c.k);
    EXPECT_EQ(power_stretch(g, g, pts, 2.0, c.k).pairs, c.sources * (c.n - 1));
    EXPECT_EQ(hop_stretch(g, g, c.k).pairs, c.sources * (c.n - 1));
  }
}

// ------------------------------------- metric phase on a thread pool

/// Dijkstra by lazy deletion, evaluating every arc's cost: an oracle
/// independent of the library kernel's frontier.
std::vector<double> reference_dijkstra(const undirected_graph& g, node_id from,
                                       const edge_cost_fn& cost) {
  std::vector<double> dist(g.num_nodes(), std::numeric_limits<double>::infinity());
  using entry = std::pair<double, node_id>;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap;
  dist[from] = 0.0;
  heap.push({0.0, from});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    for (node_id v : g.neighbors(u)) {
      const double nd = d + cost(u, v);
      if (nd < dist[v]) {
        dist[v] = nd;
        heap.push({nd, v});
      }
    }
  }
  return dist;
}

std::vector<double> reference_bfs(const undirected_graph& g, node_id s) {
  const std::vector<std::uint32_t> d = bfs_distances(g, s);
  std::vector<double> out(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    out[i] = d[i] == std::numeric_limits<std::uint32_t>::max()
                 ? std::numeric_limits<double>::infinity()
                 : static_cast<double>(d[i]);
  }
  return out;
}

/// The serial stretch loop: sources one after another, pairs summed
/// in (source, target) order as they are found.
stretch_stats reference_stretch(
    const undirected_graph& sparse, const undirected_graph& dense, std::size_t sample_sources,
    const std::function<std::vector<double>(const undirected_graph&, node_id)>& sssp) {
  stretch_stats stats;
  const std::size_t n = dense.num_nodes();
  const std::size_t step = std::max<std::size_t>(1, n / std::min(sample_sources, n));
  double total = 0.0;
  double worst = 1.0;
  std::size_t pairs = 0;
  for (node_id s = 0; s < n; s = static_cast<node_id>(s + step)) {
    const std::vector<double> dd = sssp(dense, s);
    const std::vector<double> ds = sssp(sparse, s);
    for (node_id t = 0; t < n; ++t) {
      if (t == s) continue;
      if (!std::isfinite(dd[t]) || dd[t] <= 0.0) continue;
      if (!std::isfinite(ds[t])) continue;
      const double ratio = ds[t] / dd[t];
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

struct metric_case {
  const char* name;
  std::vector<geom::vec2> positions;
  undirected_graph dense;
  undirected_graph sparse;
};

/// G_R plus the all-optimizations CBTC topology on `positions`.
metric_case cbtc_case(const char* name, std::vector<geom::vec2> positions) {
  constexpr double range = 500.0;
  algo::cbtc_params params;
  params.mode = algo::growth_mode::continuous;
  undirected_graph dense = build_max_power_graph(positions, range);
  undirected_graph sparse = algo::build_topology(positions, radio::power_model(2.0, range), params,
                                                 algo::optimization_set::all())
                                .topology;
  return {name, std::move(positions), std::move(dense), std::move(sparse)};
}

std::vector<metric_case> metric_cases() {
  const geom::bbox region = geom::bbox::rect(3000.0, 3000.0);
  std::vector<metric_case> cases;
  cases.push_back(cbtc_case("uniform", geom::uniform_points(400, region, 5)));
  cases.push_back(cbtc_case("clustered", geom::clustered_points(400, 6, 250.0, region, 9)));
  // Every third topology edge dropped: many G_R pairs become
  // unreachable and must be skipped, not counted.
  metric_case holes = cases.front();
  holes.name = "missing_pairs";
  std::vector<edge> kept;
  const std::vector<edge> edges = holes.sparse.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i % 3 != 0) kept.push_back(edges[i]);
  }
  holes.sparse = make_graph(holes.sparse.num_nodes(), std::move(kept));
  cases.push_back(std::move(holes));
  // Every fifth node stacked on its predecessor: each coincident pair
  // is a zero-cost arc (0^2), so zero-distance targets must be skipped
  // and zero-cost hops sit inside longer routes.
  std::vector<geom::vec2> stacked = geom::uniform_points(400, region, 5);
  for (std::size_t i = 5; i < stacked.size(); i += 5) stacked[i] = stacked[i - 1];
  cases.push_back(cbtc_case("coincident", std::move(stacked)));
  return cases;
}

void expect_same_stats(const stretch_stats& a, const stretch_stats& b) {
  EXPECT_EQ(a.mean, b.mean);  // bitwise: no tolerance
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.pairs, b.pairs);
}

TEST(MetricPool, StretchMatchesSerialLoopAtEveryWidth) {
  for (const metric_case& c : metric_cases()) {
    const edge_cost_fn cost = power_cost(c.positions, 2.0);
    for (const std::size_t k : {std::size_t{8}, std::size_t{30}}) {
      const stretch_stats power_ref = reference_stretch(
          c.sparse, c.dense, k,
          [&cost](const undirected_graph& g, node_id s) { return reference_dijkstra(g, s, cost); });
      const stretch_stats hop_ref = reference_stretch(c.sparse, c.dense, k, reference_bfs);
      ASSERT_GT(power_ref.pairs, 0u);
      for (const unsigned width : {1u, 3u, 8u}) {
        util::thread_pool pool(width);
        SCOPED_TRACE(::testing::Message() << c.name << " k=" << k << " width=" << width);
        expect_same_stats(power_ref, power_stretch(c.sparse, c.dense, c.positions, 2.0, k, pool));
        expect_same_stats(hop_ref, hop_stretch(c.sparse, c.dense, k, pool));
      }
    }
  }
}

TEST(MetricPool, MissingPairsAreSkippedNotCounted) {
  const std::vector<metric_case> cases = metric_cases();
  const metric_case& full = cases[0];
  const metric_case& holes = cases[2];
  util::thread_pool pool(3);
  const stretch_stats all = power_stretch(full.sparse, full.dense, full.positions, 2.0, 8, pool);
  const stretch_stats some =
      power_stretch(holes.sparse, holes.dense, holes.positions, 2.0, 8, pool);
  EXPECT_GT(some.pairs, 0u);
  EXPECT_LT(some.pairs, all.pairs);
}

TEST(MetricPool, InterferenceMatchesSerialLoopAtEveryWidth) {
  for (const metric_case& c : metric_cases()) {
    // Serial reference: one edge at a time, brute-force disk counts,
    // doubles summed in edge order.
    const std::span<const geom::vec2> pts = c.positions;
    double total = 0.0;
    std::size_t worst = 0;
    const std::vector<edge> edges = c.sparse.edges();
    for (const edge& e : edges) {
      const double len = geom::distance(pts[e.u], pts[e.v]);
      std::size_t cov = 0;
      for (node_id w = 0; w < pts.size(); ++w) {
        if (w == e.u || w == e.v) continue;
        cov += geom::distance_sq(pts[w], pts[e.u]) <= len * len ||
               geom::distance_sq(pts[w], pts[e.v]) <= len * len;
      }
      total += static_cast<double>(cov);
      worst = std::max(worst, cov);
    }
    const double mean = total / static_cast<double>(edges.size());
    for (const unsigned width : {1u, 3u, 8u}) {
      util::thread_pool pool(width);
      SCOPED_TRACE(::testing::Message() << c.name << " width=" << width);
      const interference_stats s = topology_interference(c.sparse, c.positions, pool);
      EXPECT_EQ(s.edges, edges.size());
      EXPECT_EQ(s.max, worst);
      EXPECT_EQ(s.mean, mean);
    }
  }
}

void append_stats(std::string& bytes, const stretch_stats& s) {
  append_hex(bytes, s.mean);
  append_hex(bytes, s.max);
  bytes += std::to_string(s.pairs) + '\n';
}

/// The metric kernels pinned by digest: power and hop stretch (eight
/// sampled sources and all of them), interference of the topology and
/// of G_R, on the fields the optimization pins use, at pool widths 1
/// and 4; then every Dijkstra distance from every source of a 60-node
/// field, over G_R and over the topology.
TEST(GraphMetrics, StretchDigestsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"dijkstra_60", 0x7d76523d53bd21c5ULL},
      {"isotropic_n2", 0xdc7d1de96bdadedaULL},
      {"isotropic_n3", 0x7e4bbcde502c97ULL},
      {"obstacles", 0x547ab6c7e88a36e8ULL},
      {"shadowing", 0x3e56aa7b4f1d4febULL},
  };
  const auto expect_pinned = [&](const std::string& label, const std::string& bytes,
                                 unsigned width) {
    const std::uint64_t d = digest(bytes);
    const auto it = golden.find(label);
    EXPECT_TRUE(it != golden.end() && d == it->second)
        << "{\"" << label << "\", 0x" << std::hex << d << "ULL}, width " << std::dec << width;
  };
  for (const pinned_field& f : pinned_fields()) {
    const undirected_graph topology =
        algo::build_topology(f.positions, f.link, {}, algo::optimization_set::all()).topology;
    for (const unsigned width : {1u, 4u}) {
      util::thread_pool pool(width);
      const undirected_graph gr = build_max_power_graph(f.positions, f.link, pool);
      std::string bytes;
      for (const std::size_t k : {std::size_t{8}, f.positions.size()}) {
        append_stats(bytes,
                     power_stretch(topology, gr, f.positions, f.link.power().exponent(), k, pool));
        append_stats(bytes, hop_stretch(topology, gr, k, pool));
      }
      for (const undirected_graph* g : {&topology, &gr}) {
        const interference_stats s = topology_interference(*g, f.positions, pool);
        append_hex(bytes, s.mean);
        bytes += std::to_string(s.max) + ' ' + std::to_string(s.edges) + '\n';
      }
      expect_pinned(f.name, bytes, width);
    }
  }
  const std::vector<geom::vec2> small = field_with_coincident_pair(59, 1000.0, 5);
  const radio::power_model pm(2.0, 300.0);
  const undirected_graph small_gr = build_max_power_graph(small, pm.max_range());
  const undirected_graph small_topology =
      algo::build_topology(small, pm, {}, algo::optimization_set::all()).topology;
  std::string bytes;
  for (const undirected_graph* g : {&small_gr, &small_topology}) {
    const std::vector<double> cost = arc_costs(*g, power_cost(small, 2.0));
    for (node_id s = 0; s < g->num_nodes(); ++s) {
      for (const double d : dijkstra(*g, s, cost)) append_hex(bytes, d);
    }
  }
  expect_pinned("dijkstra_60", bytes, 1);
}

}  // namespace
}  // namespace cbtc::graph
