// Cross-model preservation battery for the gain-aware removal pass:
// randomized fields x {isotropic, shadowing, obstacles}, asserting the
// paper's desiderata (subgraph of G_R, connectivity preservation,
// bounded power), drop-set dominance over Theorem 3.6 under isotropic
// propagation, bitwise determinism across pool widths, and bounded
// power stretch. Runs under the full ASan/UBSan suite and is listed in
// the TSan job's regex (it drives multi-width pools).
#include "algo/gain_removal.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/analysis.h"
#include "algo/pairwise.h"
#include "algo/pipeline.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/traversal.h"
#include "radio/power_model.h"
#include "util/parallel.h"

namespace cbtc::algo {
namespace {

using geom::vec2;

const radio::power_model pm(2.0, 500.0);

/// The three propagation regimes of the radio layer, at paper-like
/// field scale (1500 x 1500, R = 500).
std::vector<std::pair<std::string, radio::link_model>> all_links(std::uint64_t seed) {
  std::vector<std::pair<std::string, radio::link_model>> links;
  links.emplace_back("isotropic", radio::link_model(pm));
  links.emplace_back(
      "shadowing",
      radio::link_model(pm, radio::propagation_model::lognormal_shadowing(4.0, 8.0, seed)));
  links.emplace_back(
      "obstacles",
      radio::link_model(pm, radio::propagation_model::obstacle_field({
                                {.box = {{300.0, 300.0}, {700.0, 650.0}}, .loss_db = 9.0},
                                {.box = {{900.0, 800.0}, {1300.0, 1200.0}}, .loss_db = 9.0},
                            })));
  return links;
}

std::vector<vec2> field(std::size_t n, std::uint64_t seed) {
  return geom::uniform_points(n, geom::bbox::rect(1500.0, 1500.0), seed);
}

/// Growth + shrink-back topology (no op3): the input every removal
/// pass in these tests prunes.
graph::undirected_graph grown_topology(std::span<const vec2> positions,
                                       const radio::link_model& link) {
  cbtc_params params;
  params.mode = growth_mode::continuous;
  return build_topology(positions, link, params, {.shrink_back = true}).topology;
}

// ------------------------------------------------------- gain_edge_id

TEST(GainEdgeId, OrderedByPowerThenIds) {
  const std::vector<vec2> pts{{0, 0}, {10, 0}, {0, 20}, {-10, 0}};
  const radio::link_model link(pm);
  const gain_edge_id cheap = gain_edge_id::of(0, 1, pts, link);
  const gain_edge_id dear = gain_edge_id::of(0, 2, pts, link);
  EXPECT_LT(cheap, dear);
  // Equal power (same length, isotropic): ids break the tie.
  const gain_edge_id tie = gain_edge_id::of(0, 3, pts, link);
  EXPECT_LT(cheap, tie);
  // Bitwise symmetric from both endpoints.
  EXPECT_EQ(cheap, gain_edge_id::of(1, 0, pts, link));
}

TEST(GainEdgeId, NonIsotropicReordersEdges) {
  // A wall across the short link makes it cost more than the long one.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {0, 300}};
  const radio::link_model wall(
      pm, radio::propagation_model::obstacle_field(
              {{.box = {{40.0, -10.0}, {60.0, 10.0}}, .loss_db = 20.0}}));
  EXPECT_LT(gain_edge_id::of(0, 2, pts, wall), gain_edge_id::of(0, 1, pts, wall));
}

// ----------------------------------------- preservation across models

TEST(GainRemoval, PreservesInvariantsAcrossModels) {
  util::thread_pool pool(4);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<vec2> positions = field(90, seed);
    for (const auto& [name, link] : all_links(seed)) {
      const graph::undirected_graph g = grown_topology(positions, link);
      const graph::undirected_graph c = graph::build_max_power_graph(positions, link, pool);
      for (const bool remove_all : {false, true}) {
        const gain_removal_result res =
            apply_gain_aware_removal(g, c, positions, link, {.remove_all = remove_all}, pool);
        const invariant_report inv = check_invariants(res.topology, positions, link, c, pool);
        EXPECT_TRUE(inv.ok()) << name << " seed " << seed << " remove_all " << remove_all << ": "
                              << (inv.violations.empty() ? "" : inv.violations.front());
        // The pass only filters g's edge set (plus repair re-adds).
        EXPECT_EQ(res.topology.num_edges(), g.num_edges() - res.removed_edges);
        EXPECT_LE(res.removed_edges, res.redundant_edges);
        // Empirical on these fields: the repair pass never fires (the
        // drop set is already connectivity-safe). If a new seed ever
        // trips this, the pass still preserved connectivity above —
        // this assertion documents that restores are the exception.
        EXPECT_EQ(res.restored_edges, 0u) << name << " seed " << seed;
      }
    }
  }
}

// --------------------------------- isotropic dominance of Theorem 3.6

TEST(GainRemoval, IsotropicDropSetDominatesPairwise) {
  util::thread_pool pool(2);
  const radio::link_model link(pm);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::vector<vec2> positions = field(100, seed);
    const graph::undirected_graph g = grown_topology(positions, link);
    const graph::undirected_graph c = graph::build_max_power_graph(positions, link, pool);
    for (const bool remove_all : {false, true}) {
      const pairwise_result pw =
          apply_pairwise_removal(g, positions, {.remove_all = remove_all}, pool);
      const gain_removal_result ga =
          apply_gain_aware_removal(g, c, positions, link, {.remove_all = remove_all}, pool);
      EXPECT_GE(ga.redundant_edges, pw.redundant_edges) << "seed " << seed;
      EXPECT_GE(ga.removed_edges, pw.removed_edges) << "seed " << seed;
      // Superset of the drop set == subset of the kept set.
      for (const graph::edge e : ga.topology.edges()) {
        EXPECT_TRUE(pw.topology.has_edge(e.u, e.v))
            << "seed " << seed << ": gain-aware kept {" << e.u << "," << e.v
            << "} which Theorem 3.6 removed";
      }
    }
  }
}

// ------------------------------------------------ determinism by width

TEST(GainRemoval, BitwiseDeterministicAcrossPoolWidths) {
  for (std::uint64_t seed = 2; seed <= 3; ++seed) {
    const std::vector<vec2> positions = field(110, seed);
    for (const auto& [name, link] : all_links(seed)) {
      const graph::undirected_graph g = grown_topology(positions, link);
      const graph::undirected_graph c = graph::build_max_power_graph(positions, link);
      const gain_removal_result ref = apply_gain_aware_removal(g, c, positions, link);
      for (const unsigned width : {3u, 8u}) {
        util::thread_pool pool(width);
        const gain_removal_result got = apply_gain_aware_removal(g, c, positions, link, {}, pool);
        EXPECT_TRUE(got.topology == ref.topology) << name << " width " << width;
        EXPECT_EQ(got.redundant_edges, ref.redundant_edges) << name << " width " << width;
        EXPECT_EQ(got.removed_edges, ref.removed_edges) << name << " width " << width;
        EXPECT_EQ(got.restored_edges, ref.restored_edges) << name << " width " << width;
      }
    }
  }
}

// ------------------------------------------------ power-stretch bound

TEST(GainRemoval, PowerStretchStaysBounded) {
  util::thread_pool pool(2);
  const radio::link_model link(pm);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<vec2> positions = field(100, seed);
    const graph::undirected_graph g = grown_topology(positions, link);
    const gain_removal_result res = apply_gain_aware_removal(
        g, graph::build_max_power_graph(positions, link, pool), positions, link, {}, pool);
    const graph::stretch_stats st =
        graph::power_stretch(res.topology, g, positions, 2.0, positions.size());
    EXPECT_GE(st.mean, 1.0) << "seed " << seed;
    // Every dropped edge has a strictly cheaper 2-hop detour and the
    // radius gate caps per-node budgets, so sampled minimum-energy
    // routes stay within a small factor of the un-pruned topology.
    EXPECT_LE(st.max, 8.0) << "seed " << seed;
    EXPECT_GT(st.pairs, 0u) << "seed " << seed;
  }
}

// -------------------------------------------------------- edge cases

TEST(GainRemoval, CoincidentNodesNeverDropZeroPowerEdges) {
  const std::vector<vec2> pts{{0, 0}, {0, 0}, {10, 0}, {5, 1}};
  const radio::link_model link(pm);
  graph::undirected_graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(0, 3);
  g.add_edge(2, 3);
  const graph::undirected_graph c = graph::build_max_power_graph(pts, link);
  const gain_removal_result res = apply_gain_aware_removal(g, c, pts, link, {.remove_all = true});
  EXPECT_TRUE(res.topology.has_edge(0, 1));
  const invariant_report inv = check_invariants(res.topology, pts, link, c);
  EXPECT_TRUE(inv.connectivity_preserved);
}

TEST(GainRemoval, EmptyAndSingletonGraphs) {
  const radio::link_model link(pm);
  const graph::undirected_graph empty(0);
  const std::vector<vec2> none;
  EXPECT_EQ(apply_gain_aware_removal(empty, empty, none, link).removed_edges, 0u);
  const graph::undirected_graph lone(1);
  const std::vector<vec2> one{{0, 0}};
  const gain_removal_result res = apply_gain_aware_removal(lone, lone, one, link);
  EXPECT_EQ(res.topology.num_nodes(), 1u);
  EXPECT_EQ(res.topology.num_edges(), 0u);
}

TEST(GainRemoval, DeeperWitnessSearchDropsAtLeastAsMuch) {
  util::thread_pool pool(2);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::vector<vec2> positions = field(90, seed);
    for (const auto& [name, link] : all_links(seed)) {
      const graph::undirected_graph g = grown_topology(positions, link);
      const graph::undirected_graph c = graph::build_max_power_graph(positions, link, pool);
      const gain_removal_result two =
          apply_gain_aware_removal(g, c, positions, link, {.max_witness_hops = 2}, pool);
      const gain_removal_result four =
          apply_gain_aware_removal(g, c, positions, link, {.max_witness_hops = 4}, pool);
      EXPECT_GE(four.redundant_edges, two.redundant_edges) << name << " seed " << seed;
      EXPECT_TRUE(check_invariants(four.topology, positions, link, c, pool).ok())
          << name << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace cbtc::algo
