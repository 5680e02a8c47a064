// Intra-instance parallelism must be invisible in the results: one
// scenario instance run with 1 thread and with 4 threads produces
// bitwise-identical reports (growth, topology, every floating-point
// metric), statically and dynamically. Plus unit coverage for the
// util::thread_pool primitives the engine builds on.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "api/api.h"
#include "report_equal.h"
#include "util/parallel.h"

namespace cbtc::api {
namespace {

/// A 2000-node instance at the paper's density — big enough that the
/// parallel growth loop spans many work chunks and the metric
/// reductions span multiple fixed-size blocks.
scenario_spec big_spec(unsigned intra_threads) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 2000, .region_side = 6708.0};
  spec.base_seed = 2024;
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.cbtc.intra_threads = intra_threads;
  spec.opts = algo::optimization_set::all();
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

void expect_bitwise_equal(const run_report& a, const run_report& b) {
  ASSERT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_EQ(a.node_powers, b.node_powers);  // element-wise bitwise doubles
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.avg_degree, b.avg_degree);
  EXPECT_EQ(a.avg_radius, b.avg_radius);
  EXPECT_EQ(a.max_radius, b.max_radius);
  EXPECT_EQ(a.avg_power, b.avg_power);
  EXPECT_EQ(a.boundary_nodes, b.boundary_nodes);
  EXPECT_EQ(a.removed_edges, b.removed_edges);
  EXPECT_EQ(a.power_stretch, b.power_stretch);
  EXPECT_EQ(a.power_stretch_max, b.power_stretch_max);
  EXPECT_EQ(a.hop_stretch, b.hop_stretch);
  EXPECT_EQ(a.hop_stretch_max, b.hop_stretch_max);
  EXPECT_EQ(a.interference_mean, b.interference_mean);
  EXPECT_EQ(a.interference_max, b.interference_max);
  EXPECT_EQ(a.cut_vertices, b.cut_vertices);
  EXPECT_EQ(a.invariants.ok(), b.invariants.ok());
  EXPECT_EQ(a.invariants.violations, b.invariants.violations);
  ASSERT_EQ(a.has_growth, b.has_growth);
  ASSERT_EQ(a.growth.nodes.size(), b.growth.nodes.size());
  for (std::size_t u = 0; u < a.growth.nodes.size(); ++u) {
    const auto& na = a.growth.nodes[u];
    const auto& nb = b.growth.nodes[u];
    EXPECT_EQ(na.boundary, nb.boundary) << "node " << u;
    EXPECT_EQ(na.final_power, nb.final_power) << "node " << u;
    ASSERT_EQ(na.neighbors.size(), nb.neighbors.size()) << "node " << u;
    for (std::size_t i = 0; i < na.neighbors.size(); ++i) {
      EXPECT_EQ(na.neighbors[i].id, nb.neighbors[i].id) << "node " << u;
      EXPECT_EQ(na.neighbors[i].distance, nb.neighbors[i].distance) << "node " << u;
    }
  }
}

TEST(ApiParallel, StaticRunIsBitwiseIdenticalAcrossIntraThreads) {
  const engine eng;
  const run_report serial = eng.run(big_spec(1), 0);
  const run_report parallel = eng.run(big_spec(4), 0);
  expect_bitwise_equal(serial, parallel);
  EXPECT_TRUE(serial.invariants.ok());
}

/// The metric phase (stretch sources, interference edges) runs on the
/// instance pool; its stats must not move by a bit at any width,
/// including one that does not divide the source count.
TEST(ApiParallel, MetricPhaseIsBitwiseIdenticalAcrossIntraThreads) {
  const auto metrics_on = [](unsigned intra_threads) {
    scenario_spec spec = big_spec(intra_threads);
    spec.metrics = {};  // stretch (8 samples), interference, robustness
    return spec;
  };
  const engine eng;
  const run_report serial = eng.run(metrics_on(1), 0);
  EXPECT_GT(serial.power_stretch, 1.0);
  EXPECT_GT(serial.interference_mean, 0.0);
  for (const unsigned threads : {4u, 7u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_bitwise_equal(serial, eng.run(metrics_on(threads), 0));
  }
}

TEST(ApiParallel, DiscreteGrowthAlsoThreadCountInvariant) {
  scenario_spec one = big_spec(1);
  one.cbtc.mode = algo::growth_mode::discrete;
  scenario_spec four = big_spec(4);
  four.cbtc.mode = algo::growth_mode::discrete;
  const engine eng;
  expect_bitwise_equal(eng.run(one, 3), eng.run(four, 3));
}

TEST(ApiParallel, DynamicRunIsBitwiseIdenticalAcrossIntraThreads) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 30, .region_side = 1100.0};
  spec.base_seed = 515;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;

  sim_spec dyn;
  dyn.horizon = 30.0;
  dyn.settle = 10.0;
  dyn.sample_every = 2.0;
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 1.0,
                  .max_speed = 3.0,
                  .tick = 0.5,
                  .start = 10.0};
  dyn.failures = {.random_crashes = 3, .window_begin = 12.0, .window_end = 20.0};

  const engine eng;
  scenario_spec four = spec;
  four.cbtc.intra_threads = 4;
  const dynamic_report a = eng.run_dynamic(spec, dyn, 1);
  const dynamic_report b = eng.run_dynamic(four, dyn, 1);

  EXPECT_TRUE(a == b);
}

TEST(ApiParallel, LifetimeIsThreadCountInvariant) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 50, .region_side = 1200.0};
  spec.base_seed = 88;
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.opts = algo::optimization_set::all();
  const lifetime_spec life{.battery_rounds = 25.0, .flows = 15, .max_rounds = 2000};
  const engine eng;

  const lifetime_report serial = eng.run_lifetime(spec, life, 0);
  scenario_spec four = spec;
  four.cbtc.intra_threads = 4;
  const lifetime_report parallel = eng.run_lifetime(four, life, 0);
  EXPECT_EQ(serial.first_death, parallel.first_death);
  EXPECT_EQ(serial.quarter_dead, parallel.quarter_dead);
  EXPECT_EQ(serial.field_partition, parallel.field_partition);
}

// ---- per-link propagation: same contracts, non-uniform gains --------

/// An explicit isotropic propagation block must be a no-op: the spec
/// resolves to the identical link model, so the report is
/// bitwise-identical to the default (pre-propagation) path.
TEST(ApiParallel, ExplicitIsotropicPropagationIsInvisible) {
  scenario_spec with = big_spec(1);
  with.radio.propagation.kind = radio::propagation_kind::isotropic;
  const engine eng;
  expect_bitwise_equal(eng.run(big_spec(1), 0), eng.run(with, 0));
}

scenario_spec shadowed_big_spec(unsigned intra_threads) {
  scenario_spec spec = big_spec(intra_threads);
  spec.deploy.nodes = 900;
  spec.deploy.region_side = 4500.0;
  spec.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                            .sigma_db = 4.0,
                            .clamp_db = 8.0};
  spec.opts = {.shrink_back = true};  // op3's proof is unit-disk-only
  return spec;
}

TEST(ApiParallel, ShadowedStaticRunIsBitwiseIdenticalAcrossIntraThreads) {
  const engine eng;
  for (const std::uint64_t seed : {0ull, 7ull}) {
    expect_bitwise_equal(eng.run(shadowed_big_spec(1), seed), eng.run(shadowed_big_spec(4), seed));
  }
}

TEST(ApiParallel, ShadowedBatchIsBitwiseIdenticalAcrossThreadCounts) {
  scenario_spec spec = shadowed_big_spec(1);
  spec.deploy.nodes = 150;
  spec.deploy.region_side = 1837.0;
  const engine eng;
  const seed_range seeds{0, 40};
  const batch_report reference = eng.run_batch(spec, seeds, 1);
  ASSERT_EQ(reference.runs, 40u);
  for (const unsigned threads : {4u, 8u}) {
    spec.cbtc.intra_threads = threads == 4 ? 2 : 1;
    const batch_report b = eng.run_batch(spec, seeds, threads);
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EXPECT_TRUE(reports_equal(reference, b));
  }
}

TEST(ApiParallel, ShadowedDynamicRunIsBitwiseIdenticalAcrossIntraThreads) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 30, .region_side = 1100.0};
  spec.base_seed = 515;
  spec.method = method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.25;
  spec.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                            .sigma_db = 3.0,
                            .clamp_db = 6.0};

  sim_spec dyn;
  dyn.horizon = 25.0;
  dyn.settle = 8.0;
  dyn.sample_every = 2.0;
  dyn.mobility = {.kind = mobility_kind::random_waypoint,
                  .min_speed = 1.0,
                  .max_speed = 3.0,
                  .tick = 0.5,
                  .start = 8.0};
  dyn.failures = {.random_crashes = 2, .window_begin = 10.0, .window_end = 16.0};

  const engine eng;
  scenario_spec four = spec;
  four.cbtc.intra_threads = 4;
  const dynamic_report a = eng.run_dynamic(spec, dyn, 1);
  const dynamic_report b = eng.run_dynamic(four, dyn, 1);
  EXPECT_TRUE(a == b);
}

TEST(ApiParallel, ShadowedLifetimeIsThreadCountInvariant) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 50, .region_side = 1200.0};
  spec.base_seed = 88;
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.opts = {.shrink_back = true};
  spec.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                            .sigma_db = 4.0,
                            .clamp_db = 8.0};
  const lifetime_spec life{.battery_rounds = 25.0, .flows = 15, .max_rounds = 2000};
  const engine eng;
  const lifetime_report serial = eng.run_lifetime(spec, life, 0);
  scenario_spec four = spec;
  four.cbtc.intra_threads = 4;
  const lifetime_report parallel = eng.run_lifetime(four, life, 0);
  EXPECT_EQ(serial.first_death, parallel.first_death);
  EXPECT_EQ(serial.quarter_dead, parallel.quarter_dead);
  EXPECT_EQ(serial.field_partition, parallel.field_partition);
}

// ---- spatial relabeling: invisible in every report ------------------

/// Forcing the Morton relabeling pass on (threshold 0) must not change
/// a single bit of the static report relative to the default
/// label-order pipeline, at any thread count: the permutation is
/// inverted before reporting and tie-free geometry makes the growth
/// order label-independent.
TEST(ApiParallel, RelabelingIsInvisibleInStaticReports) {
  const engine eng;
  const run_report reference = eng.run(big_spec(1), 0);
  for (const unsigned threads : {1u, 4u}) {
    scenario_spec relabeled = big_spec(threads);
    relabeled.cbtc.relabel_min_nodes = 0;
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    expect_bitwise_equal(reference, eng.run(relabeled, 0));
  }
}

/// Shadowing gains hash *node ids*, so this exercises the propagation
/// relabeling layer: the permuted pipeline must draw the exact gains of
/// the original labels or edges flip.
TEST(ApiParallel, ShadowedRelabelingIsInvisible) {
  const engine eng;
  for (const std::uint64_t seed : {0ull, 7ull}) {
    const run_report reference = eng.run(shadowed_big_spec(1), seed);
    for (const unsigned threads : {1u, 4u}) {
      scenario_spec relabeled = shadowed_big_spec(threads);
      relabeled.cbtc.relabel_min_nodes = 0;
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " threads=" << threads);
      expect_bitwise_equal(reference, eng.run(relabeled, seed));
    }
  }
}

/// Discrete growth mode runs the same relabeled build path.
TEST(ApiParallel, RelabelingIsInvisibleInDiscreteGrowth) {
  scenario_spec off = big_spec(4);
  off.cbtc.mode = algo::growth_mode::discrete;
  scenario_spec on = off;
  on.cbtc.relabel_min_nodes = 0;
  const engine eng;
  expect_bitwise_equal(eng.run(off, 3), eng.run(on, 3));
}

/// Lifetime rebuilds the static topology every epoch; relabeling must
/// not shift a death time.
TEST(ApiParallel, RelabelingIsInvisibleInLifetimeReports) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 50, .region_side = 1200.0};
  spec.base_seed = 88;
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.opts = algo::optimization_set::all();
  const lifetime_spec life{.battery_rounds = 25.0, .flows = 15, .max_rounds = 2000};
  const engine eng;
  const lifetime_report reference = eng.run_lifetime(spec, life, 0);
  scenario_spec relabeled = spec;
  relabeled.cbtc.relabel_min_nodes = 0;
  relabeled.cbtc.intra_threads = 4;
  const lifetime_report permuted = eng.run_lifetime(relabeled, life, 0);
  EXPECT_EQ(reference.first_death, permuted.first_death);
  EXPECT_EQ(reference.quarter_dead, permuted.quarter_dead);
  EXPECT_EQ(reference.field_partition, permuted.field_partition);
}

// ---- executor nesting: batch x intra threads ------------------------

/// Every (batch threads, intra threads) combination — including
/// oversubscribed ones far beyond the machine — must produce the
/// bitwise-identical batch report, because both levels draw tasks
/// from the one process-wide executor and all reductions are
/// block-ordered. 40 seeds = 3 seed blocks, so batch threading is
/// genuinely exercised.
TEST(ApiParallel, BatchTimesIntraThreadMatrixIsBitwiseIdentical) {
  scenario_spec spec;
  spec.deploy = {.kind = deployment_kind::uniform, .nodes = 250, .region_side = 2372.0};
  spec.base_seed = 777;
  spec.cbtc.mode = algo::growth_mode::continuous;
  spec.opts = algo::optimization_set::all();
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};

  const engine eng;
  const seed_range seeds{0, 40};
  spec.cbtc.intra_threads = 1;
  const batch_report reference = eng.run_batch(spec, seeds, 1);
  ASSERT_EQ(reference.runs, 40u);
  EXPECT_EQ(reference.connectivity_failures, 0u);

  for (const unsigned threads : {2u, 4u, 8u}) {
    for (const unsigned intra : {1u, 2u, 8u}) {
      spec.cbtc.intra_threads = intra;
      const batch_report b = eng.run_batch(spec, seeds, threads);
      SCOPED_TRACE(::testing::Message() << "threads=" << threads << " intra=" << intra);
      EXPECT_TRUE(reports_equal(reference, b));
    }
  }
}

// ---- util::thread_pool unit coverage --------------------------------

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  util::thread_pool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ReduceIsIndependentOfThreadCount) {
  // Sum of doubles whose result depends on association: blocked
  // reduction must give the same bits for every pool size.
  const std::size_t n = 10000;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  const auto sum_with = [&](unsigned threads) {
    util::thread_pool pool(threads);
    return pool.reduce<double>(
        n, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) s += values[i];
          return s;
        },
        [](double& total, const double& part) { total += part; });
  };
  const double one = sum_with(1);
  EXPECT_EQ(one, sum_with(2));
  EXPECT_EQ(one, sum_with(4));
  EXPECT_EQ(one, sum_with(8));
}

TEST(ThreadPool, PropagatesExceptions) {
  util::thread_pool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000,
                        [&](std::size_t i) {
                          if (i == 567) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  util::thread_pool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  int sum = 0;  // no synchronization needed: everything is inline
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

}  // namespace
}  // namespace cbtc::api
