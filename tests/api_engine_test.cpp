// The cbtc::api façade must be a faithful front door: the engine's
// oracle and protocol methods agree on the neighbor relation (the same
// invariant tests/proto_agent_test.cpp asserts on the raw layers),
// baseline methods match direct baselines::* calls, and multi-seed
// batches reduce to bitwise-identical aggregates for any thread count.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "api/api.h"
#include "api/wire.h"
#include "baselines/baselines.h"
#include "digest.h"
#include "graph/euclidean.h"
#include "report_equal.h"

namespace cbtc::api {
namespace {

std::set<graph::node_id> ids(const algo::node_result& n) {
  std::set<graph::node_id> s;
  for (const auto& rec : n.neighbors) s.insert(rec.id);
  return s;
}

/// Paper-style workload small enough for protocol simulation in tests;
/// discrete growth (what the distributed agents actually run) and a
/// reliable low-latency channel so the protocol matches the oracle.
scenario_spec parity_spec() {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 60, .region_side = 1200.0};
  spec.base_seed = 42;
  spec.cbtc.mode = algo::growth_mode::discrete;
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

TEST(ApiEngine, OracleAndProtocolAgreeOnNeighborRelation) {
  scenario_spec spec = parity_spec();
  const engine eng;

  spec.method = method_spec::oracle();
  const run_report oracle = eng.run(spec);
  spec.method = method_spec::protocol();
  const run_report protocol = eng.run(spec);

  ASSERT_TRUE(oracle.has_growth);
  ASSERT_TRUE(protocol.has_growth);
  ASSERT_EQ(oracle.growth.num_nodes(), protocol.growth.num_nodes());
  for (std::size_t u = 0; u < oracle.growth.num_nodes(); ++u) {
    EXPECT_EQ(ids(oracle.growth.nodes[u]), ids(protocol.growth.nodes[u])) << "node " << u;
    EXPECT_EQ(oracle.growth.nodes[u].boundary, protocol.growth.nodes[u].boundary) << "node " << u;
  }
  EXPECT_EQ(oracle.topology, protocol.topology);
  EXPECT_TRUE(protocol.has_protocol_stats);
  EXPECT_GT(protocol.protocol_stats.broadcasts, 0u);
  EXPECT_FALSE(oracle.has_protocol_stats);
}

TEST(ApiEngine, OracleAndProtocolAgreeWithOptimizations) {
  scenario_spec spec = parity_spec();
  spec.cbtc.alpha = algo::alpha_two_pi_three;
  spec.opts = algo::optimization_set::all();
  const engine eng;

  spec.method = method_spec::oracle();
  const run_report oracle = eng.run(spec);
  spec.method = method_spec::protocol();
  const run_report protocol = eng.run(spec);

  EXPECT_EQ(oracle.topology, protocol.topology);
  EXPECT_EQ(oracle.removed_edges, protocol.removed_edges);
}

TEST(ApiEngine, BaselinesMatchDirectCalls) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 80, .region_side = 1400.0};
  spec.base_seed = 7;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const engine eng;

  const auto positions = spec.make_positions(0);
  const double R = spec.radio.max_range;

  spec.method = method_spec::of_baseline(baseline_kind::euclidean_mst);
  EXPECT_EQ(eng.run(spec).topology, baselines::euclidean_mst(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::relative_neighborhood);
  EXPECT_EQ(eng.run(spec).topology, baselines::relative_neighborhood_graph(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::gabriel);
  EXPECT_EQ(eng.run(spec).topology, baselines::gabriel_graph(positions, R));

  spec.method = method_spec::of_baseline(baseline_kind::yao);
  spec.method.yao_cones = 6;
  EXPECT_EQ(eng.run(spec).topology, baselines::yao_graph(positions, R, 6));

  spec.method = method_spec::of_baseline(baseline_kind::knn);
  spec.method.knn_k = 3;
  EXPECT_EQ(eng.run(spec).topology, baselines::knn_graph(positions, R, 3));

  spec.method = method_spec::of_baseline(baseline_kind::max_power);
  EXPECT_EQ(eng.run(spec).topology, graph::build_max_power_graph(positions, R));
}

TEST(ApiEngine, MaxPowerBaselineUsesNominalRadius) {
  scenario_spec spec;
  spec.deploy.nodes = 50;
  spec.method = method_spec::of_baseline(baseline_kind::max_power);
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const run_report r = engine{}.run(spec);
  EXPECT_DOUBLE_EQ(r.avg_radius, spec.radio.max_range);
  EXPECT_DOUBLE_EQ(r.max_radius, spec.radio.max_range);
  ASSERT_EQ(r.node_powers.size(), 50u);
  for (const double p : r.node_powers) EXPECT_DOUBLE_EQ(p, spec.power().max_power());
}

TEST(ApiEngine, BatchAggregatesAreThreadCountInvariant) {
  scenario_spec spec = get_scenario("paper_table1");
  spec.deploy.nodes = 40;  // keep 24 runs quick
  spec.metrics.stretch_samples = 4;
  const engine eng;

  const seed_range seeds{0, 24};
  const batch_report serial = eng.run_batch(spec, seeds, 1);
  const batch_report parallel = eng.run_batch(spec, seeds, 4);

  ASSERT_EQ(serial.runs, 24u);
  EXPECT_TRUE(reports_equal(serial, parallel));
}

TEST(ApiEngine, BatchReportsComeBackInSeedOrder) {
  scenario_spec spec;
  spec.deploy.nodes = 30;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const auto reports = engine{}.run_all(spec, {5, 6}, 3);
  ASSERT_EQ(reports.size(), 6u);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].seed, 5 + i);
  }
}

TEST(ApiEngine, RunIsDeterministicPerSeed) {
  scenario_spec spec = get_scenario("paper_table1");
  spec.deploy.nodes = 40;
  const engine eng;
  const run_report a = eng.run(spec, 3);
  const run_report b = eng.run(spec, 3);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.node_powers, b.node_powers);
  EXPECT_EQ(a.avg_radius, b.avg_radius);
}

TEST(ApiEngine, FixedDeploymentIgnoresSeed) {
  scenario_spec spec;
  spec.deploy = deployment_spec::fixed_positions(
      {{0.0, 0.0}, {100.0, 0.0}, {0.0, 100.0}, {300.0, 300.0}});
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  const engine eng;
  EXPECT_EQ(eng.run(spec, 0).topology, eng.run(spec, 99).topology);
  EXPECT_EQ(eng.run(spec).nodes, 4u);
}

/// Every run's topology edges, then the block partial the runs reduce
/// to, as one byte string.
class report_bytes {
 public:
  void add(const graph::undirected_graph& g) {
    for (const graph::edge& e : g.edges()) {
      bytes_ += std::to_string(e.u) + ' ' + std::to_string(e.v) + ';';
    }
    bytes_ += '\n';
  }
  template <class Batch>
  std::string finish(const Batch& batch) const {
    return bytes_ + wire::encode_block_partial(0, batch);
  }

 private:
  std::string bytes_;
};

/// The reports of every preset, baseline, post pass, dynamic preset
/// and lifetime policy, pinned by digest so a refactor of the layers
/// below cannot move a byte of them unnoticed.
TEST(ApiEngine, ReportDigestsArePinned) {
  const std::map<std::string, std::uint64_t> golden = {
      {"dense_sensor_field", 0x8665d4aa2cd9bf97ULL},
      {"figure6", 0x3ca01d4605c96157ULL},
      {"grid_mesh", 0x18a38a163e1433b3ULL},
      {"paper_basic", 0x6d5a44ba9ea99fbbULL},
      {"paper_protocol", 0xdde8bd13145876baULL},
      {"paper_table1", 0xbbb46a2b4eec661bULL},
      {"shadowed_field", 0x2dd83b4a8de2882cULL},
      {"shadowed_field_stc", 0x5f918c356482497aULL},
      {"sparse_adhoc", 0xad2ab7419685eb27ULL},
      {"urban_obstacles", 0x828b798c8c6e71c2ULL},
      {"urban_obstacles_stc", 0x42a279bba9260de2ULL},
      {"paper_table1/mst", 0x9aa7824da9a5e08bULL},
      {"paper_table1/rng", 0x8d9edba23e7e4970ULL},
      {"paper_table1/gabriel", 0xe1941dc078ccbf68ULL},
      {"paper_table1/yao", 0x67e977cc949cd084ULL},
      {"paper_table1/knn", 0xce2abfb92a64f6b1ULL},
      {"paper_table1/max-power", 0xfb05dcd7bd401b54ULL},
      {"paper_table1/bridge_augmentation", 0x85402c18ced9f398ULL},
      {"convergecast_grid", 0xf617922ecdfa47eaULL},
      {"crash_recovery", 0x302b7bcfbd32c702ULL},
      {"dense_mobile_field", 0x9a1128f25b117302ULL},
      {"mobile_churn", 0x694275c69f61c4c9ULL},
      {"shadowed_field_mobile", 0xd1d964ebac781f45ULL},
      {"urban_obstacles_churn", 0x3991d5592205c0e6ULL},
      {"lifetime/plain", 0xa10897fda1f7d0dfULL},
      {"lifetime/balanced", 0xbcb0381aa461903ULL},
      {"lifetime/cooperative", 0xaf6302dc9614314fULL},
      {"lifetime/convergecast", 0x4d05743530c9fabULL},
      {"mobile_churn/lossy", 0x8adb0e0396bcfb58ULL},
      {"mobile_churn/zero_delay", 0x2718e3fd60f4f386ULL},
      {"paper_protocol/lossy", 0xb54d80f8ab029704ULL},
  };
  const auto check = [&](const std::string& label, const std::string& bytes) {
    const auto it = golden.find(label);
    EXPECT_TRUE(it != golden.end() && digest(bytes) == it->second)
        << "{\"" << label << "\", 0x" << std::hex << digest(bytes) << "ULL},";
  };
  const engine eng;
  const auto check_static = [&](const std::string& label, const scenario_spec& spec) {
    report_bytes bytes;
    batch_report batch;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const run_report r = eng.run(spec, seed);
      bytes.add(r.topology);
      batch.accumulate(r);
    }
    check(label, bytes.finish(batch));
  };
  for (const std::string& name : scenario_names()) check_static(name, get_scenario(name));

  const scenario_spec table1 = get_scenario("paper_table1");
  for (const baseline_kind b :
       {baseline_kind::euclidean_mst, baseline_kind::relative_neighborhood, baseline_kind::gabriel,
        baseline_kind::yao, baseline_kind::knn, baseline_kind::max_power}) {
    scenario_spec spec = table1;
    spec.method = method_spec::of_baseline(b);
    check_static("paper_table1/" + std::string(schema::name_of(schema::baseline_names, b)), spec);
  }
  scenario_spec bridged = table1;
  bridged.post.bridge_augmentation = true;
  check_static("paper_table1/bridge_augmentation", bridged);

  const auto check_dynamic = [&](const std::string& label, const dynamic_scenario& dyn) {
    report_bytes bytes;
    dynamic_batch_report batch;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      const dynamic_report r = eng.run_dynamic(dyn.scenario, dyn.sim, seed);
      bytes.add(r.final_topology);
      batch.accumulate(r);
    }
    check(label, bytes.finish(batch));
  };
  for (const std::string& name : dynamic_scenario_names()) {
    check_dynamic(name, get_dynamic_scenario(name));
  }

  // A channel that draws randomness per delivery, and one without a
  // base delay, run on the one-region engine whatever the region count.
  const auto lossy = [](scenario_spec spec) {
    spec.protocol.channel.drop_prob = 0.1;
    spec.protocol.channel.dup_prob = 0.1;
    spec.protocol.channel.jitter_max = 0.05;
    spec.protocol.direction_noise = 0.02;
    return spec;
  };
  dynamic_scenario churn = get_dynamic_scenario("mobile_churn");
  churn.scenario = lossy(churn.scenario);
  check_dynamic("mobile_churn/lossy", churn);
  churn = get_dynamic_scenario("mobile_churn");
  churn.scenario.protocol.channel.base_delay = 0.0;
  check_dynamic("mobile_churn/zero_delay", churn);
  check_static("paper_protocol/lossy", lossy(get_scenario("paper_protocol")));

  const std::pair<const char*, lifetime_spec> lifetimes[] = {
      {"plain", {.policy = lifetime_policy::plain_cbtc}},
      {"balanced", {.policy = lifetime_policy::energy_balanced}},
      {"cooperative", {.policy = lifetime_policy::cooperative_adaptation}},
      {"convergecast", {.convergecast = true, .sink = 0}},
  };
  for (const auto& [label, life] : lifetimes) {
    report_bytes bytes;
    lifetime_batch_report batch;
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
      batch.accumulate(eng.run_lifetime(table1, life, seed));
    }
    check(std::string("lifetime/") + label, bytes.finish(batch));
  }
}

}  // namespace
}  // namespace cbtc::api
