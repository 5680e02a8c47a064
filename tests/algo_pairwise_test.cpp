#include "algo/pairwise.h"

#include <gtest/gtest.h>

#include "algo/oracle.h"
#include "algo/shrink_back.h"
#include "geom/angle.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "graph/traversal.h"
#include "util/parallel.h"
#include "graph_fixtures.h"
#include "op3_reference.h"
#include "pinned_fields.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

using geom::pi;
using geom::vec2;

const radio::power_model pm(2.0, 500.0);

// ------------------------------------------------------------- edge_id

TEST(EdgeId, OrderedByLengthFirst) {
  const std::vector<vec2> pts{{0, 0}, {10, 0}, {0, 20}};
  const edge_id short_edge = edge_id::of(0, 1, pts);
  const edge_id long_edge = edge_id::of(0, 2, pts);
  EXPECT_LT(short_edge, long_edge);
}

TEST(EdgeId, TieBrokenByIds) {
  // Two edges of identical length: lexicographic id comparison decides.
  const std::vector<vec2> pts{{0, 0}, {10, 0}, {-10, 0}, {30, 0}, {40, 0}};
  const edge_id a = edge_id::of(0, 1, pts);  // len 10, ids (1,0)
  const edge_id b = edge_id::of(0, 2, pts);  // len 10, ids (2,0)
  const edge_id c = edge_id::of(3, 4, pts);  // len 10, ids (4,3)
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, edge_id::of(1, 0, pts));  // symmetric
}

// -------------------------------------------------------- redundancy

TEST(Redundant, TriangleLongestEdgeIsRedundant) {
  // Near-equilateral triangle with angles < pi/3 at the witness: make
  // a thin triangle where the apex angle is small.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {95, 30}};
  const graph::undirected_graph g = graph::make_graph(3, {{0, 1}, {0, 2}, {1, 2}});
  // angle(1,0,2) = atan2(30, 95) ~ 17.5 deg < 60 deg: the longer of
  // (0,1), (0,2) is redundant.
  EXPECT_TRUE(is_redundant_edge(g, pts, 0, 1) || is_redundant_edge(g, pts, 0, 2));
  // The short edge (1,2) has no witness within pi/3 at either end.
  EXPECT_FALSE(is_redundant_edge(g, pts, 1, 2));
}

TEST(Redundant, WideAngleNotRedundant) {
  // 90-degree separation at u: neither edge redundant via u.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {0, 100}};
  const graph::undirected_graph g = graph::make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_FALSE(is_redundant_edge(g, pts, 0, 1));
  EXPECT_FALSE(is_redundant_edge(g, pts, 0, 2));
}

TEST(Redundant, WitnessAtEitherEndpointCounts) {
  // w is a neighbor of v (not of u); edge (u,v) is still redundant.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, {95, 10}};
  // u=0, v=1: the long edge; witness w=2 attached to v=1.
  const graph::undirected_graph g = graph::make_graph(3, {{0, 1}, {1, 2}});
  // angle(0,1,2) at node 1 between directions to 0 and 2 is small?
  // dir(1->0) = pi; dir(1->2) = atan2(10,-5) ~ 116.6 deg. Angle ~ 63 deg
  // — too wide. Move the witness nearer the line.
  const std::vector<vec2> pts2{{0, 0}, {100, 0}, {60, 10}};
  const graph::undirected_graph g2 = graph::make_graph(3, {{0, 1}, {1, 2}});
  // dir(1->0)=pi, dir(1->2)=atan2(10,-40) ~ 166 deg; angle ~ 14 deg < 60.
  // d(1,2) ~ 41.2 < d(0,1) = 100: witness wins.
  EXPECT_TRUE(is_redundant_edge(g2, pts2, 0, 1));
  EXPECT_FALSE(is_redundant_edge(g2, pts2, 1, 2));
  (void)pts;
  (void)g;
}

TEST(Redundant, ExactlyPiOverThreeIsNotRedundant) {
  // Definition 3.5 requires angle *strictly* less than pi/3.
  const std::vector<vec2> pts{{0, 0}, {100, 0}, geom::polar({0, 0}, 50.0, pi / 3.0)};
  const graph::undirected_graph g = graph::make_graph(3, {{0, 1}, {0, 2}});
  EXPECT_FALSE(is_redundant_edge(g, pts, 0, 1));
}

TEST(Redundant, CoincidentWitnessIsIgnored) {
  // Node 1 sits on node 0, node 2 due east of both. A coincident node
  // has no bearing (atan2(0, 0) would read due east) and a zero-length
  // id, so were it taken as a witness, edge {0, 2} would go as well as
  // {1, 2} (witnessed by 0 at apex 2), cutting node 2 off.
  const std::vector<vec2> pts{{0, 0}, {0, 0}, {100, 0}};
  const graph::undirected_graph g = graph::make_graph(3, {{0, 1}, {0, 2}, {1, 2}});
  EXPECT_FALSE(is_redundant_edge(g, pts, 0, 2));
  EXPECT_TRUE(is_redundant_edge(g, pts, 1, 2));
  pairwise_options all;
  all.remove_all = true;
  const pairwise_result pr = apply_pairwise_removal(g, pts, all);
  EXPECT_EQ(pr.redundant_edges, 1u);
  EXPECT_TRUE(pr.topology.has_edge(0, 2));
  EXPECT_FALSE(pr.topology.has_edge(1, 2));
  EXPECT_TRUE(graph::is_connected(pr.topology));
}

// ---------------------------------------------------------- removal

struct instance {
  std::vector<vec2> positions;
  graph::undirected_graph e_alpha;
  graph::undirected_graph gr;
};

instance make_instance(std::uint64_t seed, double alpha = alpha_five_pi_six) {
  instance in;
  in.positions = geom::uniform_points(100, geom::bbox::rect(1500, 1500), seed);
  cbtc_params p;
  p.alpha = alpha;
  in.e_alpha = apply_shrink_back(run_cbtc(in.positions, pm, p)).symmetric_closure();
  in.gr = graph::build_max_power_graph(in.positions, pm.max_range());
  return in;
}

TEST(PairwiseRemoval, RemoveAllPreservesConnectivity) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const instance in = make_instance(seed);
    pairwise_options opts;
    opts.remove_all = true;
    const pairwise_result pr = apply_pairwise_removal(in.e_alpha, in.positions, opts);
    EXPECT_TRUE(graph::same_connectivity(pr.topology, in.gr)) << "seed " << seed;
    EXPECT_EQ(pr.removed_edges, pr.redundant_edges);
    EXPECT_EQ(pr.topology.num_edges() + pr.removed_edges, in.e_alpha.num_edges());
  }
}

TEST(PairwiseRemoval, GatedVariantPreservesConnectivity) {
  for (std::uint64_t seed : {6u, 7u, 8u, 9u, 10u}) {
    const instance in = make_instance(seed);
    const pairwise_result pr = apply_pairwise_removal(in.e_alpha, in.positions);
    EXPECT_TRUE(graph::same_connectivity(pr.topology, in.gr)) << "seed " << seed;
    EXPECT_LE(pr.removed_edges, pr.redundant_edges);
  }
}

TEST(PairwiseRemoval, GatedRemovesOnlyLongEdges) {
  const instance in = make_instance(11);
  const pairwise_result pr = apply_pairwise_removal(in.e_alpha, in.positions);
  // Every node's radius after removal equals its longest kept edge and
  // never exceeds its radius before.
  for (graph::node_id u = 0; u < in.e_alpha.num_nodes(); ++u) {
    EXPECT_LE(graph::node_radius(pr.topology, in.positions, u),
              graph::node_radius(in.e_alpha, in.positions, u) + 1e-9);
  }
}

TEST(PairwiseRemoval, ReducesRadiusAndDegree) {
  const instance in = make_instance(12);
  const pairwise_result pr = apply_pairwise_removal(in.e_alpha, in.positions);
  EXPECT_LT(graph::average_radius(pr.topology, in.positions, pm.max_range()),
            graph::average_radius(in.e_alpha, in.positions, pm.max_range()));
  EXPECT_LT(graph::average_degree(pr.topology), graph::average_degree(in.e_alpha));
}

TEST(PairwiseRemoval, RemoveAllSparserThanGated) {
  const instance in = make_instance(13);
  pairwise_options all;
  all.remove_all = true;
  const auto pr_all = apply_pairwise_removal(in.e_alpha, in.positions, all);
  const auto pr_gated = apply_pairwise_removal(in.e_alpha, in.positions);
  EXPECT_LE(pr_all.topology.num_edges(), pr_gated.topology.num_edges());
}

TEST(PairwiseRemoval, NoRedundantEdgesInRemoveAllOutput) {
  // After removing all redundant edges, re-classifying on the original
  // graph finds none of the survivors redundant.
  const instance in = make_instance(14);
  pairwise_options opts;
  opts.remove_all = true;
  const auto pr = apply_pairwise_removal(in.e_alpha, in.positions, opts);
  for (const graph::edge& e : pr.topology.edges()) {
    EXPECT_FALSE(is_redundant_edge(in.e_alpha, in.positions, e.u, e.v))
        << "edge " << e.u << "-" << e.v;
  }
}

TEST(PairwiseRemoval, BothEndpointsGateKeepsMoreEdges) {
  // The alternative reading of the paper's length gate: the resulting
  // graph nests between the either-endpoint gate and the raw input.
  const instance in = make_instance(20);
  pairwise_options both;
  both.gate = pairwise_gate::both_endpoints;
  const auto pr_both = apply_pairwise_removal(in.e_alpha, in.positions, both);
  const auto pr_either = apply_pairwise_removal(in.e_alpha, in.positions);
  EXPECT_GE(pr_both.topology.num_edges(), pr_either.topology.num_edges());
  EXPECT_LE(pr_both.topology.num_edges(), in.e_alpha.num_edges());
  // Either-gate output is a subgraph of both-gate output.
  for (const graph::edge& e : pr_either.topology.edges()) {
    EXPECT_TRUE(pr_both.topology.has_edge(e.u, e.v));
  }
  EXPECT_TRUE(graph::same_connectivity(pr_both.topology, in.gr));
}

TEST(PairwiseRemoval, BothEndpointsGatePreservesConnectivity) {
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    const instance in = make_instance(seed);
    pairwise_options both;
    both.gate = pairwise_gate::both_endpoints;
    const auto pr = apply_pairwise_removal(in.e_alpha, in.positions, both);
    EXPECT_TRUE(graph::same_connectivity(pr.topology, in.gr)) << "seed " << seed;
  }
}

TEST(PairwiseRemoval, EmptyGraph) {
  const pairwise_result pr = apply_pairwise_removal(graph::undirected_graph(5), {}, {});
  EXPECT_EQ(pr.topology.num_nodes(), 5u);
  EXPECT_EQ(pr.redundant_edges, 0u);
}

TEST(PairwiseRemoval, WorksOnSymmetricCoreToo) {
  // The paper combines op3 with op2 at alpha = 2*pi/3.
  for (std::uint64_t seed : {15u, 16u, 17u}) {
    std::vector<vec2> positions = geom::uniform_points(100, geom::bbox::rect(1500, 1500), seed);
    cbtc_params p;
    p.alpha = alpha_two_pi_three;
    const auto core = apply_shrink_back(run_cbtc(positions, pm, p)).symmetric_core();
    const auto gr = graph::build_max_power_graph(positions, pm.max_range());
    const auto pr = apply_pairwise_removal(core, positions);
    EXPECT_TRUE(graph::same_connectivity(pr.topology, gr)) << "seed " << seed;
  }
}

TEST(PairwiseRemoval, ClassifiesEveryEdgeLikeTheReference) {
  // The per-arc pass against the reference classifier, edge by edge:
  // with remove_all an edge goes iff the reference calls it redundant.
  // Fields: the pinned ones (a coincident pair each), a lattice with
  // many equal lengths and bearings, and a field with every fourth
  // node stacked on its predecessor.
  std::vector<std::vector<vec2>> fields;
  for (const pinned_field& f : pinned_fields()) fields.push_back(f.positions);
  std::vector<vec2> lattice;
  for (int x = 0; x < 12; ++x) {
    for (int y = 0; y < 12; ++y) lattice.push_back({120.0 * x, 120.0 * y});
  }
  fields.push_back(lattice);
  std::vector<vec2> stacked = geom::uniform_points(160, geom::bbox::rect(1500, 1500), 31);
  for (std::size_t i = 4; i < stacked.size(); i += 4) stacked[i] = stacked[i - 1];
  fields.push_back(stacked);
  pairwise_options all;
  all.remove_all = true;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const std::vector<vec2>& pts = fields[f];
    for (const double alpha : {alpha_five_pi_six, alpha_two_pi_three}) {
      cbtc_params p;
      p.alpha = alpha;
      const graph::undirected_graph g = run_cbtc(pts, pm, p).symmetric_closure();
      for (const unsigned width : {1u, 4u}) {
        util::thread_pool pool(width);
        const pairwise_result pr = apply_pairwise_removal(g, pts, all, pool);
        std::size_t redundant = 0;
        for (const graph::edge& e : g.edges()) {
          const bool want = is_redundant_edge(g, pts, e.u, e.v);
          redundant += want;
          EXPECT_EQ(pr.topology.has_edge(e.u, e.v), !want)
              << "field " << f << " alpha " << alpha << " edge " << e.u << "-" << e.v;
        }
        EXPECT_EQ(pr.redundant_edges, redundant) << "field " << f;
        EXPECT_EQ(pr.removed_edges, redundant) << "field " << f;
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::algo
