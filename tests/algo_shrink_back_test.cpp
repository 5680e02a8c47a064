#include "algo/shrink_back.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "direction_set.h"
#include "geom/arc_set.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/traversal.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

cbtc_result paper_instance(std::uint64_t seed, growth_mode mode = growth_mode::discrete) {
  cbtc_params p;
  p.mode = mode;
  return run_cbtc(geom::uniform_points(100, geom::bbox::rect(1500, 1500), seed), pm, p);
}

TEST(ShrinkBack, NeverIncreasesPowerOrNeighbors) {
  const cbtc_result before = paper_instance(1);
  const cbtc_result after = apply_shrink_back(before);
  ASSERT_EQ(after.num_nodes(), before.num_nodes());
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    EXPECT_LE(after.nodes[u].final_power, before.nodes[u].final_power + 1e-12);
    EXPECT_LE(after.nodes[u].neighbors.size(), before.nodes[u].neighbors.size());
    EXPECT_EQ(after.nodes[u].boundary, before.nodes[u].boundary);
  }
}

TEST(ShrinkBack, PreservesConeCoverage) {
  // The defining property (Theorem 3.1's premise): cover_alpha of the
  // kept directions equals cover_alpha of all directions.
  const cbtc_result before = paper_instance(2);
  const cbtc_result after = apply_shrink_back(before);
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    const auto cover_before =
        geom::arc_set::cover(directions(before.nodes[u]), before.params.alpha);
    const auto cover_after = geom::arc_set::cover(directions(after.nodes[u]), after.params.alpha);
    EXPECT_TRUE(cover_after.approx_equals(cover_before, 1e-6)) << "node " << u;
  }
}

TEST(ShrinkBack, OnlyBoundaryNodesAffectedByDefault) {
  const cbtc_result before = paper_instance(3);
  const cbtc_result after = apply_shrink_back(before);
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    if (!before.nodes[u].boundary) {
      EXPECT_EQ(after.nodes[u].neighbors.size(), before.nodes[u].neighbors.size());
      EXPECT_DOUBLE_EQ(after.nodes[u].final_power, before.nodes[u].final_power);
    }
  }
}

TEST(ShrinkBack, NonBoundaryNodesAreNoOpsEvenWhenProcessed) {
  // Provable no-op: a non-boundary node's earlier levels all had a gap,
  // so no strictly smaller level can reproduce the final coverage.
  const cbtc_result before = paper_instance(4);
  shrink_back_options opts;
  opts.boundary_only = false;
  const cbtc_result after = apply_shrink_back(before, opts);
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    if (!before.nodes[u].boundary) {
      EXPECT_EQ(after.nodes[u].neighbors.size(), before.nodes[u].neighbors.size()) << "node " << u;
    }
  }
}

TEST(ShrinkBack, ActuallyShrinksSomeone) {
  // On the paper's workload the shrink-back savings are substantial
  // (Table 1: radius 436.8 -> 373.7 for alpha = 5*pi/6); at minimum,
  // someone must shrink.
  const cbtc_result before = paper_instance(5);
  const cbtc_result after = apply_shrink_back(before);
  double saved = 0.0;
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    saved += before.nodes[u].final_power - after.nodes[u].final_power;
  }
  EXPECT_GT(saved, 0.0);
}

TEST(ShrinkBack, DroppedNeighborsAreHighestLevels) {
  const cbtc_result before = paper_instance(6);
  const cbtc_result after = apply_shrink_back(before);
  for (std::size_t u = 0; u < before.num_nodes(); ++u) {
    if (after.nodes[u].level_powers.size() == before.nodes[u].level_powers.size()) continue;
    // Every kept neighbor's level fits in the kept prefix of levels.
    const std::size_t kept_levels = after.nodes[u].level_powers.size();
    for (const neighbor_record& r : after.nodes[u].neighbors) {
      EXPECT_LT(r.level, kept_levels);
    }
    // final_power equals the last kept level's power.
    EXPECT_DOUBLE_EQ(after.nodes[u].final_power, after.nodes[u].level_powers.back());
  }
}

TEST(ShrinkBack, GsAlphaPreservesConnectivity) {
  // Theorem 3.1 on random instances, both growth modes.
  for (std::uint64_t seed : {10u, 11u, 12u, 13u}) {
    for (growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
      const cbtc_result shrunk = apply_shrink_back(paper_instance(seed, mode));
      const auto positions = geom::uniform_points(100, geom::bbox::rect(1500, 1500), seed);
      const auto gr = graph::build_max_power_graph(positions, pm.max_range());
      EXPECT_TRUE(graph::same_connectivity(shrunk.symmetric_closure(), gr))
          << "seed " << seed << " mode " << static_cast<int>(mode);
    }
  }
}

TEST(ShrinkBack, ReducesAverageRadiusOnPaperWorkload) {
  const auto positions = geom::uniform_points(100, geom::bbox::rect(1500, 1500), 77);
  cbtc_params p;
  const cbtc_result before = run_cbtc(positions, pm, p);
  const cbtc_result after = apply_shrink_back(before);
  const double r_before =
      graph::average_radius(before.symmetric_closure(), positions, pm.max_range());
  const double r_after = graph::average_radius(after.symmetric_closure(), positions, pm.max_range());
  EXPECT_LT(r_after, r_before);
}

/// Shrink-back by copying: every node copied into a fresh result, the
/// trimmed ones rebuilt from their kept levels. The oracle for the
/// library's in-place pass.
node_result reference_shrink_node(const node_result& in, double alpha,
                                  const shrink_back_options& opts) {
  if (in.neighbors.empty() || in.level_powers.size() <= 1) return in;
  const geom::arc_set full_cover = geom::arc_set::cover(directions(in), alpha);
  for (std::size_t keep = 0; keep + 1 < in.level_powers.size(); ++keep) {
    std::vector<double> dirs;
    for (const neighbor_record& r : in.neighbors) {
      if (r.level <= keep && r.distance > 0.0) dirs.push_back(r.direction);
    }
    if (!geom::arc_set::cover(dirs, alpha).approx_equals(full_cover, opts.cover_epsilon)) continue;
    node_result out;
    out.boundary = in.boundary;
    out.level_powers.assign(in.level_powers.begin(),
                            in.level_powers.begin() + static_cast<std::ptrdiff_t>(keep) + 1);
    out.final_power = out.level_powers.back();
    for (const neighbor_record& r : in.neighbors) {
      if (r.level <= keep) out.neighbors.push_back(r);
    }
    return out;
  }
  return in;
}

cbtc_result reference_shrink_back(const cbtc_result& in, const shrink_back_options& opts) {
  cbtc_result out;
  out.params = in.params;
  for (const node_result& n : in.nodes) {
    out.nodes.push_back(opts.boundary_only && !n.boundary
                            ? n
                            : reference_shrink_node(n, in.params.alpha, opts));
  }
  return out;
}

TEST(ShrinkBack, MatchesCopyBasedReference) {
  for (const std::uint64_t seed : {20u, 21u, 22u, 23u}) {
    for (const growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
      for (const bool boundary_only : {true, false}) {
        const cbtc_result grown = paper_instance(seed, mode);
        const shrink_back_options opts{.boundary_only = boundary_only};
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " mode "
                                          << static_cast<int>(mode) << " boundary_only "
                                          << boundary_only);
        const cbtc_result want = reference_shrink_back(grown, opts);
        ASSERT_NE(want, grown);  // someone was trimmed
        EXPECT_EQ(apply_shrink_back(grown, opts), want);
      }
    }
  }
}

TEST(ShrinkBack, MovedInGrowthKeepsUntrimmedNodeBuffers) {
  // A growth moved in is edited in place: no node it leaves alone is
  // copied, so each keeps the very neighbor buffer it came in with.
  for (const bool boundary_only : {true, false}) {
    cbtc_result grown = paper_instance(8);
    const cbtc_result before = grown;
    std::vector<const neighbor_record*> buffers;
    for (const node_result& n : grown.nodes) buffers.push_back(n.neighbors.data());
    const cbtc_result after =
        apply_shrink_back(std::move(grown), {.boundary_only = boundary_only});
    ASSERT_EQ(after, reference_shrink_back(before, {.boundary_only = boundary_only}));
    std::size_t untrimmed = 0;
    for (std::size_t u = 0; u < after.num_nodes(); ++u) {
      if (after.nodes[u] != before.nodes[u]) continue;
      ++untrimmed;
      EXPECT_EQ(after.nodes[u].neighbors.data(), buffers[u]) << "node " << u;
    }
    EXPECT_GT(untrimmed, 0u);
    EXPECT_LT(untrimmed, after.num_nodes());
  }
}

TEST(ShrinkBack, EmptyAndTrivialNodesUntouched) {
  const std::vector<vec2> pts{{0, 0}, {5000, 0}, {100, 100}};
  const cbtc_result before = run_cbtc(pts, pm, {});
  const cbtc_result after = apply_shrink_back(before);
  EXPECT_EQ(after.num_nodes(), before.num_nodes());
  // Node 1 is isolated (boundary, no neighbors): nothing to shrink.
  EXPECT_TRUE(after.nodes[1].neighbors.empty());
}

}  // namespace
}  // namespace cbtc::algo
