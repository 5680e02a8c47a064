// The incremental live-neighbor index must be indistinguishable from a
// fresh max-power graph build: after ANY sequence of moves, crashes,
// and restarts, its edge set equals
// build_max_power_graph(positions).induced(up), and the field verdict
// of evaluate_connectivity agrees with component analysis of that
// graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "geom/dynamic_grid.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "graph/traversal.h"
#include "graph_fixtures.h"
#include "radio/power_model.h"

namespace cbtc::graph {
namespace {

constexpr double kRange = 320.0;
const radio::power_model kRadio(2.0, kRange);  // an isotropic link of range kRange

std::vector<geom::vec2> deployment(std::size_t n, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(1000.0, 1000.0), seed);
}

undirected_graph reference_graph(const std::vector<geom::vec2>& positions,
                                 const std::vector<bool>& up) {
  return build_max_power_graph(positions, kRange).induced(up);
}

/// The field verdict of `index`. The mirror only has to match the
/// index's node count: the field verdict reads the G_R forest alone.
bool field_connected(const live_neighbor_index& index) {
  const closure_mirror no_topology(index.num_nodes());
  connectivity_scratch scratch;
  return evaluate_connectivity(no_topology, index, scratch).field_connected;
}

TEST(LiveIndex, InitialBuildMatchesMaxPowerGraph) {
  const auto positions = deployment(80, 11);
  const live_neighbor_index index(positions, kRadio);
  const std::vector<bool> up(positions.size(), true);
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
  EXPECT_EQ(index.live_count(), positions.size());
}

TEST(LiveIndex, CrashDropsEdgesAndRestartRestoresThem) {
  const auto positions = deployment(60, 5);
  live_neighbor_index index(positions, kRadio);
  std::vector<bool> up(positions.size(), true);

  index.erase(7);
  up[7] = false;
  EXPECT_FALSE(index.is_live(7));
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
  EXPECT_TRUE(index.neighbors(7).empty());

  index.insert(7, positions[7]);
  up[7] = true;
  EXPECT_EQ(index.graph(), reference_graph(positions, up));
}

TEST(LiveIndex, MoveAcrossTheFieldRewiresNeighborhoods) {
  const auto positions = deployment(60, 6);
  live_neighbor_index index(positions, kRadio);
  std::vector<geom::vec2> current = positions;
  const std::vector<bool> up(positions.size(), true);

  // Teleport a node corner to corner, then drift it back in steps.
  current[4] = {999.0, 999.0};
  index.move(4, current[4]);
  EXPECT_EQ(index.graph(), reference_graph(current, up));
  for (int step = 0; step < 12; ++step) {
    current[4] = current[4] + geom::vec2{-80.0, -71.0};
    index.move(4, current[4]);
    EXPECT_EQ(index.graph(), reference_graph(current, up));
  }
}

/// Random mobility / crash / restart sequences, with edge identity and
/// the field verdict checked after every batch of events.
TEST(LiveIndex, RandomChurnStaysEdgeIdenticalToFreshBuild) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto positions = deployment(50, 100 + seed);
    live_neighbor_index index(positions, kRadio);
    std::vector<geom::vec2> current = positions;
    std::vector<bool> up(positions.size(), true);

    std::mt19937_64 rng(seed * 7919 + 1);
    std::uniform_int_distribution<std::size_t> pick_node(0, positions.size() - 1);
    std::uniform_real_distribution<double> coord(-50.0, 1050.0);  // may leave the region
    std::uniform_real_distribution<double> jitter(-60.0, 60.0);
    std::uniform_int_distribution<int> pick_op(0, 9);

    for (int step = 0; step < 300; ++step) {
      const auto u = static_cast<node_id>(pick_node(rng));
      const int op = pick_op(rng);
      if (op < 6) {  // local drift (the common mobility-tick case)
        current[u] = current[u] + geom::vec2{jitter(rng), jitter(rng)};
        index.move(u, current[u]);
      } else if (op < 8) {  // teleport (waypoint arrival, big hop)
        current[u] = {coord(rng), coord(rng)};
        index.move(u, current[u]);
      } else if (up[u]) {  // crash
        index.erase(u);
        up[u] = false;
      } else {  // restart where the node meanwhile drifted
        index.insert(u, current[u]);
        up[u] = true;
      }

      if (step % 10 == 0 || step + 1 == 300) {
        const undirected_graph expected = reference_graph(current, up);
        ASSERT_EQ(index.graph(), expected) << "seed " << seed << " step " << step;
        ASSERT_EQ(field_connected(index), live_nodes_connected_bfs(expected, up))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST(LiveIndex, FieldVerdictFromAllDownThroughOneByOneRestarts) {
  // Crash every node, then restart them one at a time: the verdict
  // passes through 0 and 1 live nodes (trivially one component) and
  // must agree with the reference at each stage.
  const auto positions = deployment(40, 3);
  live_neighbor_index index(positions, kRadio);
  std::vector<bool> up(positions.size(), true);
  for (node_id u = 0; u < positions.size(); ++u) {
    index.erase(u);
    up[u] = false;
  }
  ASSERT_EQ(index.live_count(), 0u);
  EXPECT_TRUE(field_connected(index));
  std::size_t split = 0;
  for (node_id u = 0; u < positions.size(); ++u) {
    index.insert(u, positions[u]);
    up[u] = true;
    const bool expected = live_nodes_connected_bfs(reference_graph(positions, up), up);
    ASSERT_EQ(field_connected(index), expected) << "after insert " << u;
    if (!expected) ++split;
  }
  // The restarts must pass through a split field for the case to mean
  // anything.
  EXPECT_GT(split, 0u);
}

TEST(DynamicGrid, QueriesMatchBruteForceUnderChurn) {
  const auto positions = deployment(70, 21);
  geom::dynamic_grid grid(kRange);
  std::vector<geom::vec2> current;
  std::vector<bool> present(positions.size(), false);
  for (geom::point_index i = 0; i < positions.size(); ++i) {
    grid.insert(i, positions[i]);
    present[i] = true;
    current.push_back(positions[i]);
  }

  std::mt19937_64 rng(17);
  std::uniform_int_distribution<std::size_t> pick(0, positions.size() - 1);
  std::uniform_real_distribution<double> coord(-200.0, 1200.0);
  for (int step = 0; step < 200; ++step) {
    const auto i = static_cast<geom::point_index>(pick(rng));
    if (step % 3 == 0 && present[i]) {
      grid.erase(i);
      present[i] = false;
    } else if (!present[i]) {
      grid.insert(i, current[i]);
      present[i] = true;
    } else {
      current[i] = {coord(rng), coord(rng)};
      grid.move(i, current[i]);
    }

    // Compare against brute force over the present points.
    const geom::vec2 center{coord(rng), coord(rng)};
    std::vector<geom::point_index> got;
    grid.query_radius_into(center, kRange, geom::spatial_grid::npos, got);
    std::sort(got.begin(), got.end());
    std::vector<geom::point_index> want;
    for (geom::point_index j = 0; j < current.size(); ++j) {
      if (present[j] && geom::distance_sq(current[j], center) <= kRange * kRange) {
        want.push_back(j);
      }
    }
    ASSERT_EQ(got, want) << "step " << step;
  }
}

}  // namespace
}  // namespace cbtc::graph
