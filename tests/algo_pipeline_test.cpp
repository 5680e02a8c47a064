// Direct contract tests for the build_topology pipeline: flag
// combinations, the alpha-gating of asymmetric removal, and the
// relationships between stages.
#include "algo/pipeline.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "digest.h"
#include "geom/random_points.h"
#include "graph/euclidean.h"
#include "graph/metrics.h"
#include "pinned_fields.h"
#include "radio/power_model.h"

namespace cbtc::algo {
namespace {

const radio::power_model pm(2.0, 500.0);

std::vector<geom::vec2> instance(std::uint64_t seed) {
  return geom::uniform_points(90, geom::bbox::rect(1400, 1400), seed);
}

TEST(Pipeline, NoOptsEqualsOracleClosure) {
  const auto pts = instance(1);
  cbtc_params params;
  const topology_result t = build_topology(pts, pm, params, optimization_set::none());
  EXPECT_EQ(t.topology, run_cbtc(pts, pm, params).symmetric_closure());
  EXPECT_FALSE(t.asymmetric_applied);
  EXPECT_EQ(t.redundant_edges, 0u);
  EXPECT_EQ(t.removed_edges, 0u);
}

TEST(Pipeline, AsymRequestIgnoredAboveTwoPiThree) {
  const auto pts = instance(2);
  cbtc_params params;  // alpha = 5*pi/6
  optimization_set opts;
  opts.asymmetric_removal = true;
  const topology_result t = build_topology(pts, pm, params, opts);
  EXPECT_FALSE(t.asymmetric_applied);
  // Without op2 the topology equals the closure.
  EXPECT_EQ(t.topology, run_cbtc(pts, pm, params).symmetric_closure());
}

TEST(Pipeline, AsymAppliedAtTwoPiThree) {
  const auto pts = instance(3);
  cbtc_params params;
  params.alpha = alpha_two_pi_three;
  optimization_set opts;
  opts.asymmetric_removal = true;
  const topology_result t = build_topology(pts, pm, params, opts);
  EXPECT_TRUE(t.asymmetric_applied);
  EXPECT_EQ(t.topology, run_cbtc(pts, pm, params).symmetric_core());
}

TEST(Pipeline, ShrinkBackFlagReflectedInGrowth) {
  const auto pts = instance(4);
  cbtc_params params;
  optimization_set opts;
  opts.shrink_back = true;
  const topology_result with = build_topology(pts, pm, params, opts);
  const topology_result without = build_topology(pts, pm, params, optimization_set::none());
  double power_with = 0.0, power_without = 0.0;
  for (const auto& n : with.growth.nodes) power_with += n.final_power;
  for (const auto& n : without.growth.nodes) power_without += n.final_power;
  EXPECT_LT(power_with, power_without);
}

TEST(Pipeline, PairwiseStatsConsistent) {
  const auto pts = instance(5);
  cbtc_params params;
  optimization_set opts;
  opts.shrink_back = true;
  opts.pairwise_removal = true;
  const topology_result t = build_topology(pts, pm, params, opts);
  EXPECT_GT(t.redundant_edges, 0u);
  EXPECT_LE(t.removed_edges, t.redundant_edges);

  // remove_all removes exactly the redundant count.
  optimization_set all = opts;
  all.pairwise.remove_all = true;
  const topology_result ta = build_topology(pts, pm, params, all);
  EXPECT_EQ(ta.removed_edges, ta.redundant_edges);
  EXPECT_LE(ta.topology.num_edges(), t.topology.num_edges());
}

TEST(Pipeline, StagesOnlyShrinkMetrics) {
  // Each additional optimization can only reduce degree and radius.
  const auto pts = instance(6);
  cbtc_params params;
  params.alpha = alpha_two_pi_three;

  optimization_set o0;                                  // basic
  optimization_set o1{.shrink_back = true};             // +op1
  optimization_set o12 = o1;
  o12.asymmetric_removal = true;                        // +op2
  optimization_set oall = optimization_set::all();      // +op3

  double prev_deg = 1e18, prev_rad = 1e18;
  for (const optimization_set& o : {o0, o1, o12, oall}) {
    const topology_result t = build_topology(pts, pm, params, o);
    const double deg = graph::average_degree(t.topology);
    const double rad = graph::average_radius(t.topology, pts, pm.max_range());
    EXPECT_LE(deg, prev_deg + 1e-12);
    EXPECT_LE(rad, prev_rad + 1e-9);
    prev_deg = deg;
    prev_rad = rad;
  }
}

TEST(Pipeline, EmptyAndSingleNode) {
  const topology_result empty = build_topology({}, pm, {}, optimization_set::all());
  EXPECT_EQ(empty.topology.num_nodes(), 0u);

  const std::vector<geom::vec2> one{{10.0, 10.0}};
  const topology_result single = build_topology(one, pm, {}, optimization_set::all());
  EXPECT_EQ(single.topology.num_nodes(), 1u);
  EXPECT_EQ(single.topology.num_edges(), 0u);
  EXPECT_TRUE(single.growth.nodes[0].boundary);
}

TEST(Pipeline, GrowthModePropagates) {
  const auto pts = instance(7);
  cbtc_params cont;
  cont.mode = growth_mode::continuous;
  const topology_result t = build_topology(pts, pm, cont, optimization_set::none());
  EXPECT_EQ(t.growth.params.mode, growth_mode::continuous);
  // Continuous basic graphs are sparser than discrete ones (no
  // doubling overshoot).
  cbtc_params disc;
  const topology_result td = build_topology(pts, pm, disc, optimization_set::none());
  EXPECT_LE(t.topology.num_edges(), td.topology.num_edges());
}

/// Every output field of a topology_result as one byte string: the
/// post-shrink-back node records, the topology's edges, the op3 counts
/// and both flags. Doubles are hex floats, so the digest pins them bit
/// for bit.
std::string topology_bytes(const topology_result& t) {
  std::string bytes;
  for (const node_result& n : t.growth.nodes) {
    for (const neighbor_record& rec : n.neighbors) {
      bytes += std::to_string(rec.id) + ' ';
      append_hex(bytes, rec.distance);
      append_hex(bytes, rec.direction);
      bytes += std::to_string(rec.level) + ' ';
      append_hex(bytes, rec.discovery_power);
    }
    bytes += '|';
    for (const double p : n.level_powers) append_hex(bytes, p);
    bytes += '|';
    append_hex(bytes, n.final_power);
    bytes += n.boundary ? "boundary\n" : "covered\n";
  }
  for (const graph::edge& e : t.topology.edges()) {
    bytes += std::to_string(e.u) + '-' + std::to_string(e.v) + ' ';
  }
  bytes += '\n' + std::to_string(t.redundant_edges) + ' ' + std::to_string(t.removed_edges) +
           ' ' + std::to_string(t.restored_edges);
  bytes += t.asymmetric_applied ? " core" : " closure";
  bytes += t.gain_aware_applied ? " gain-aware" : " angle";
  return bytes;
}

/// Shrink-back, the symmetric core or closure and both op3 passes,
/// pinned by digest over every propagation model, growth mode, the
/// two alphas on either side of op2's bound, and both op3 strengths.
/// The report digests cover none of shrink-back's kept levels under
/// discrete growth, op3's counts, or the gain-aware pass at 2*pi/3.
TEST(AlgoPipeline, OptimizationDigestsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"isotropic_n2/continuous/2pi3/all", 0x1017b057423ae8afULL},
      {"isotropic_n2/continuous/2pi3/gated", 0xd373fd86d4ab9431ULL},
      {"isotropic_n2/continuous/5pi6/all", 0xe79e16c9dbf2ceecULL},
      {"isotropic_n2/continuous/5pi6/gated", 0x43cc5675b4ffbaedULL},
      {"isotropic_n2/discrete/2pi3/all", 0x51251eda8d81906dULL},
      {"isotropic_n2/discrete/2pi3/gated", 0x485040a6d5ceaf0ULL},
      {"isotropic_n2/discrete/5pi6/all", 0xbf40486ac6973e5aULL},
      {"isotropic_n2/discrete/5pi6/gated", 0xbee4dca8b54d0965ULL},
      {"isotropic_n3/continuous/2pi3/all", 0x9543c2f079bb1f80ULL},
      {"isotropic_n3/continuous/2pi3/gated", 0xbd7f960ede9ffd1cULL},
      {"isotropic_n3/continuous/5pi6/all", 0x3cda49bdac3478adULL},
      {"isotropic_n3/continuous/5pi6/gated", 0xc80b06df1fd42b63ULL},
      {"isotropic_n3/discrete/2pi3/all", 0x77c3e7370b285a86ULL},
      {"isotropic_n3/discrete/2pi3/gated", 0xf0a59d3192d4f96bULL},
      {"isotropic_n3/discrete/5pi6/all", 0x2d179faec2e0c01cULL},
      {"isotropic_n3/discrete/5pi6/gated", 0xdafaad7305ad95e1ULL},
      {"obstacles/continuous/2pi3/all", 0xd21af4dfb8309a65ULL},
      {"obstacles/continuous/2pi3/gated", 0xe142b743e59172e2ULL},
      {"obstacles/continuous/5pi6/all", 0xe0a4f2a92acdae0cULL},
      {"obstacles/continuous/5pi6/gated", 0x5884382764ee9480ULL},
      {"obstacles/discrete/2pi3/all", 0xacdd1e70e6dcee33ULL},
      {"obstacles/discrete/2pi3/gated", 0x4250e7c22ef903d7ULL},
      {"obstacles/discrete/5pi6/all", 0xd99126abfc6f6bd8ULL},
      {"obstacles/discrete/5pi6/gated", 0x7218c98ec8d6bf10ULL},
      {"shadowing/continuous/2pi3/all", 0x1803092af627de30ULL},
      {"shadowing/continuous/2pi3/gated", 0xd13265c86f635869ULL},
      {"shadowing/continuous/5pi6/all", 0x7e079f70e7bbc347ULL},
      {"shadowing/continuous/5pi6/gated", 0x2576d6344f13d763ULL},
      {"shadowing/discrete/2pi3/all", 0x4c8b0e5a22fa9df0ULL},
      {"shadowing/discrete/2pi3/gated", 0x963c3ce1be9c3d6dULL},
      {"shadowing/discrete/5pi6/all", 0xe961b2c0a5e87895ULL},
      {"shadowing/discrete/5pi6/gated", 0xd1c4f65d8a16d4f3ULL},
  };
  for (const pinned_field& f : pinned_fields()) {
    for (const growth_mode mode : {growth_mode::discrete, growth_mode::continuous}) {
      for (const double alpha : {alpha_five_pi_six, alpha_two_pi_three}) {
        for (const bool remove_all : {false, true}) {
          const std::string label = f.name +
                                    (mode == growth_mode::discrete ? "/discrete" : "/continuous") +
                                    (alpha == alpha_five_pi_six ? "/5pi6" : "/2pi3") +
                                    (remove_all ? "/all" : "/gated");
          optimization_set opts = optimization_set::all();
          opts.pairwise.remove_all = remove_all;
          for (const unsigned threads : {1u, 4u}) {
            cbtc_params p;
            p.alpha = alpha;
            p.mode = mode;
            p.intra_threads = threads;
            const std::uint64_t d =
                digest(topology_bytes(build_topology(f.positions, f.link, p, opts)));
            const auto it = golden.find(label);
            EXPECT_TRUE(it != golden.end() && d == it->second)
                << "{\"" << label << "\", 0x" << std::hex << d << "ULL}, threads " << std::dec
                << threads;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::algo
