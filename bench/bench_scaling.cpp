// Experiment X4: runtime scaling (google-benchmark).
//
// CBTC itself is a distributed algorithm; what scales here is our
// centralized engine and the simulation substrate. Scenario execution
// goes through the cbtc::api façade (deploy + method + metrics);
// the remaining micro-benchmarks time the geometric substrate the
// engine is built on. Constant density is maintained by growing the
// region with the node count.
// A machine-readable JSON record (google-benchmark's format) is
// written only when asked: pass `--out PATH` (or the standard
// --benchmark_out flags). Runs without an output flag leave no file
// behind.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algo/gain_removal.h"
#include "algo/oracle.h"
#include "algo/pipeline.h"
#include "algo/stc.h"
#include "api/api.h"
#include "geom/random_points.h"
#include "geom/spatial_grid.h"
#include "graph/digraph.h"
#include "graph/euclidean.h"
#include "graph/live_index.h"
#include "radio/propagation.h"
#include "util/parallel.h"

namespace {

using namespace cbtc;

double density_side_for(std::int64_t nodes) {
  // 100 nodes <-> 1500^2 (the paper's density).
  return 1500.0 * std::sqrt(static_cast<double>(nodes) / 100.0);
}

/// Scenario at the paper's density with `nodes` nodes; metrics off so
/// the engine time is dominated by the algorithm under test.
api::scenario_spec scaling_spec(std::int64_t nodes) {
  api::scenario_spec spec;
  spec.deploy.nodes = static_cast<std::size_t>(nodes);
  spec.deploy.region_side = density_side_for(nodes);
  spec.base_seed = 42;
  spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

std::vector<geom::vec2> make_positions(std::int64_t nodes) {
  return scaling_spec(nodes).make_positions(0);
}

const radio::power_model pm(2.0, 500.0);
const api::engine eng;

void BM_EngineOracle(benchmark::State& state) {
  const api::scenario_spec spec = scaling_spec(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineOracle)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_EngineFullPipeline(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.opts = algo::optimization_set::all();
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineFullPipeline)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_EngineProtocol(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineProtocol)->RangeMultiplier(2)->Range(50, 200)->Complexity();

/// Multi-seed batch throughput: 8 instances of the paper workload per
/// iteration, fanned over state.range(0) threads.
void BM_EngineBatch(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(100);
  spec.opts = algo::optimization_set::all();
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_batch(spec, {0, 8}, threads));
  }
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4);

/// Executor nesting: a 48-seed batch of 400-node instances with
/// range(0) batch threads x range(1) intra threads, all drawing from
/// the one process-wide pool. The headline row is (4, 4) — before the
/// shared executor that combination stood up 16 competing threads;
/// now it composes (and the report is bitwise identical to (1, 1)).
void BM_EngineBatchNestedThreads(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(400);
  spec.opts = algo::optimization_set::all();
  spec.cbtc.intra_threads = static_cast<unsigned>(state.range(1));
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_batch(spec, {0, 48}, threads));
  }
}
BENCHMARK(BM_EngineBatchNestedThreads)
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({1, 4})
    ->Args({4, 4})
    ->Args({8, 8})
    ->Unit(benchmark::kMillisecond);

// -- per-link propagation: isotropic vs shadowed ----------------------

/// The isotropic rows above gate "the propagation layer costs nothing
/// when unused" (they run the exact pre-propagation code path); these
/// rows measure what a non-uniform gain field adds: per-candidate gain
/// hashing in growth, per-link filtering in G_R and the dynamic index.
api::scenario_spec shadowed_scaling_spec(std::int64_t nodes) {
  api::scenario_spec spec = scaling_spec(nodes);
  spec.radio.propagation = {.kind = radio::propagation_kind::lognormal_shadowing,
                            .sigma_db = 4.0,
                            .clamp_db = 8.0};
  return spec;
}

const radio::link_model shadowed_link(pm, radio::propagation_model::lognormal_shadowing(4.0, 8.0,
                                                                                        42));

void BM_EngineOracleShadowed(benchmark::State& state) {
  const api::scenario_spec spec = shadowed_scaling_spec(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EngineOracleShadowed)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_MaxPowerGraphGridShadowed(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph(positions, shadowed_link));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphGridShadowed)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

// -- op3 passes: Theorem 3.6 angle witness vs gain-aware link power ---

/// Growth + shrink-back topology and candidate graph per (nodes,
/// shadowed) pair, built once and shared across the op3 rows so the
/// timed region is the removal / STC pass alone.
struct removal_fixture {
  std::vector<geom::vec2> positions;
  graph::undirected_graph topology;
  graph::undirected_graph candidates;
};

const removal_fixture& removal_instance(std::int64_t nodes, bool shadowed) {
  static std::map<std::pair<std::int64_t, bool>, removal_fixture> cache;
  const auto [it, fresh] = cache.try_emplace({nodes, shadowed});
  if (fresh) {
    removal_fixture& f = it->second;
    f.positions = make_positions(nodes);
    const radio::link_model link = shadowed ? shadowed_link : radio::link_model(pm);
    algo::cbtc_params params;
    params.mode = algo::growth_mode::continuous;
    params.intra_threads = 0;
    f.topology = algo::build_topology(f.positions, link, params, {.shrink_back = true}).topology;
    util::thread_pool pool(0);
    f.candidates = graph::build_max_power_graph(f.positions, link, pool);
  }
  return it->second;
}

/// Denominator row for the machine-independent gain-aware/pairwise
/// ratio gate in bench/baseline_scaling.json.
void BM_PairwiseRemoval(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::apply_pairwise_removal(f.topology, f.positions, {}, pool));
  }
}
BENCHMARK(BM_PairwiseRemoval)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GainAwareRemoval(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), false);
  const radio::link_model link(pm);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::apply_gain_aware_removal(f.topology, f.candidates, f.positions, link, {}, pool));
  }
}
BENCHMARK(BM_GainAwareRemoval)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_GainAwareRemovalShadowed(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), true);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::apply_gain_aware_removal(f.topology, f.candidates, f.positions,
                                                            shadowed_link, {}, pool));
  }
}
BENCHMARK(BM_GainAwareRemovalShadowed)->Arg(10000)->Unit(benchmark::kMillisecond);

/// Sethu-Gerety STC over the prebuilt shadowed candidate graph.
void BM_StcGrowth(benchmark::State& state) {
  const removal_fixture& f = removal_instance(state.range(0), true);
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        algo::build_stc_topology(f.candidates, f.positions, shadowed_link, pool));
  }
}
BENCHMARK(BM_StcGrowth)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_EngineBaselineMst(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::of_baseline(api::baseline_kind::euclidean_mst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineBaselineMst)->RangeMultiplier(2)->Range(100, 800);

// -- intra-instance parallel growth (serial vs threaded, large n) -----

/// Times the oracle growth loop alone (algo::run_cbtc) on one large
/// instance: range(0) nodes at the paper's density, range(1) intra
/// threads. The 10k x {1, 4} pair is the headline intra-parallel
/// speedup row; results are bitwise identical across the thread axis.
void BM_CbtcGrowthIntraThreads(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  algo::cbtc_params params;
  params.mode = algo::growth_mode::continuous;
  params.intra_threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::run_cbtc(positions, pm, params));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CbtcGrowthIntraThreads)
    ->ArgsProduct({{10000, 50000}, {1, 2, 4}})
    ->Unit(benchmark::kMillisecond);

/// Engine run on a large instance, serial vs 4 intra threads. Growth,
/// radius pass and invariants only: scaling_spec turns the metrics and
/// the optimizations off (BM_EngineMetricsOn times those).
void BM_EngineOracleIntraThreads(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.cbtc.intra_threads = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineOracleIntraThreads)
    ->ArgsProduct({{10000}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

// -- the metric phase of one large engine run -------------------------

/// The paper_table1 preset (continuous growth, all three optimizations)
/// at `nodes` nodes and paper density on a 4-wide pool, Morton
/// relabeling from 4096 nodes, with its default metrics (stretch from 8
/// samples, interference, robustness) on or off.
api::scenario_spec table1_spec_at(std::int64_t nodes, bool metrics) {
  api::scenario_spec spec = api::get_scenario("paper_table1");
  spec.deploy.nodes = static_cast<std::size_t>(nodes);
  spec.deploy.region_side = density_side_for(nodes);
  spec.cbtc.intra_threads = 4;
  spec.cbtc.relabel_min_nodes = 4096;
  if (!metrics) spec.metrics = {.stretch = false, .interference = false, .robustness = false};
  return spec;
}

/// On/Off is the gated ratio: what the metric phase costs on top of
/// building and checking the topology. The stretch sources and the
/// interference edges run on the instance pool.
void BM_EngineMetricsOn(benchmark::State& state) {
  const api::scenario_spec spec = table1_spec_at(state.range(0), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineMetricsOn)->Arg(12000)->Unit(benchmark::kMillisecond);

void BM_EngineMetricsOff(benchmark::State& state) {
  const api::scenario_spec spec = table1_spec_at(state.range(0), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
}
BENCHMARK(BM_EngineMetricsOff)->Arg(12000)->Unit(benchmark::kMillisecond);

// -- million-node static pipeline -------------------------------------

/// The growth-construction gate: one full oracle engine run at the
/// paper's density on a hardware-width pool. At these sizes the flat
/// CSR topology, the Morton relabeling pass (on by default above
/// relabel_min_nodes), and the parallel scatter passes all engage —
/// this is the configuration the million-node acceptance row times.
/// One iteration per measurement: the 1M row is seconds-scale, and the
/// machine-independent gate is the 1M/100k *ratio*, not the absolute.
void BM_Growth(benchmark::State& state) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.cbtc.intra_threads = 0;  // hardware width
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run(spec));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Growth)->Arg(100000)->Arg(1000000)->Iterations(1)->Unit(benchmark::kMillisecond);

/// An asymmetric ~100k-node digraph for the closure rows: max-power
/// adjacency with a deterministic third of the arcs dropped, so the
/// in-neighbor scatter has real work (union of out- and in-lists).
graph::digraph closure_instance(std::int64_t nodes) {
  const auto positions = make_positions(nodes);
  util::thread_pool pool(0);
  const graph::undirected_graph gr = graph::build_max_power_graph(positions, pm.max_range(), pool);
  std::vector<std::vector<graph::node_id>> out(gr.num_nodes());
  for (graph::node_id u = 0; u < gr.num_nodes(); ++u) {
    for (const graph::node_id v : gr.neighbors(u)) {
      if ((u + 2u * v) % 3u != 0u) out[u].push_back(v);
    }
  }
  return graph::digraph::from_adjacency(std::move(out));
}

/// The two-pass count/fill closure at width 1 vs hardware width. The
/// parallel/width-1 ratio is the bench gate: the pooled scatter must
/// never lose to its own inline run (ratio stays near or under 1 even
/// on single-core runners, well under on multi-core ones).
void BM_SymmetricClosureWidth1(benchmark::State& state) {
  const graph::digraph d = closure_instance(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.symmetric_closure());
  }
}
BENCHMARK(BM_SymmetricClosureWidth1)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SymmetricClosureParallel(benchmark::State& state) {
  const graph::digraph d = closure_instance(state.range(0));
  util::thread_pool pool(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.symmetric_closure(pool));
  }
}
BENCHMARK(BM_SymmetricClosureParallel)->Arg(100000)->Unit(benchmark::kMillisecond);

// -- dynamic sampling: per-tick full rebuild vs incremental index -----

namespace dynamic_tick {

/// One mobility tick: every node advances by its velocity, bouncing at
/// the region boundary — the motion the incremental index absorbs as
/// move() deltas and the rebuild strategy answers by reconstructing
/// G_R from scratch.
struct motion {
  explicit motion(std::int64_t nodes)
      : side(density_side_for(nodes)), positions(make_positions(nodes)) {
    velocities.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      // Deterministic per-node heading; speeds ~ a few units per tick.
      const double a = 0.7 * static_cast<double>(i % 97);
      velocities.push_back({3.0 * std::cos(a), 3.0 * std::sin(a)});
    }
  }

  void step() {
    for (std::size_t i = 0; i < positions.size(); ++i) {
      geom::vec2 p = positions[i] + velocities[i];
      if (p.x < 0.0 || p.x > side) {
        velocities[i].x = -velocities[i].x;
        p.x = std::clamp(p.x, 0.0, side);
      }
      if (p.y < 0.0 || p.y > side) {
        velocities[i].y = -velocities[i].y;
        p.y = std::clamp(p.y, 0.0, side);
      }
      positions[i] = p;
    }
  }

  double side;
  std::vector<geom::vec2> positions;
  std::vector<geom::vec2> velocities;
};

}  // namespace dynamic_tick

void BM_DynamicTickFullRebuild(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  for (auto _ : state) {
    m.step();
    benchmark::DoNotOptimize(graph::build_max_power_graph(m.positions, pm.max_range()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickFullRebuild)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void BM_DynamicTickIncrementalIndex(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, pm.max_range());
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndex)
    ->Arg(1000)->Arg(10000)->Arg(50000)
    ->Unit(benchmark::kMillisecond);

/// The same mobility ticks against a gain-aware index: every candidate
/// that enters a node's pruning radius pays one link filter.
void BM_DynamicTickIncrementalIndexShadowed(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, shadowed_link);
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndexShadowed)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

/// Obstacle-field ticks: a gain-row miss costs one segment test per
/// obstacle, so this row gates the per-node gain cache — steady-state
/// ticks must re-filter mostly from cached rows (epoch-invalidated
/// only around the mover) instead of re-walking the obstacle list for
/// every candidate.
radio::link_model obstacle_tick_link(std::int64_t nodes) {
  const double side = density_side_for(nodes);
  std::vector<radio::obstacle> walls;
  for (int i = 0; i < 12; ++i) {
    // A deterministic scatter of long thin walls across the field.
    const double x = side * (0.08 + 0.077 * i);
    const double y = side * (0.13 + 0.061 * (i * 5 % 11));
    const bool horizontal = (i % 2) == 0;
    walls.push_back({.box = {{x, y}, {x + (horizontal ? side * 0.18 : 8.0),
                                      y + (horizontal ? 8.0 : side * 0.18)}},
                     .loss_db = 6.0});
  }
  return {pm, radio::propagation_model::obstacle_field(std::move(walls))};
}

void BM_DynamicTickIncrementalIndexObstacles(benchmark::State& state) {
  dynamic_tick::motion m(state.range(0));
  graph::live_neighbor_index index(m.positions, obstacle_tick_link(state.range(0)));
  for (auto _ : state) {
    m.step();
    for (std::size_t i = 0; i < m.positions.size(); ++i) {
      index.move(static_cast<graph::node_id>(i), m.positions[i]);
    }
    benchmark::DoNotOptimize(index.num_edges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DynamicTickIncrementalIndexObstacles)
    ->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// -- convergecast data plane: traffic on vs off -----------------------

/// The registered convergecast preset (64-node lattice streaming
/// periodic readings to a corner sink) with and without the traffic
/// layer. The Base row runs the identical dynamic simulation minus
/// traffic, so the machine-independent gate is the Tick/Base *ratio*:
/// the packet layer (routing refreshes, queueing, per-hop forwarding)
/// must stay a bounded fraction on top of the protocol simulation, not
/// dominate it.
void run_convergecast(benchmark::State& state, bool traffic_on) {
  api::dynamic_scenario preset = api::get_dynamic_scenario("convergecast_grid");
  preset.scenario.deploy.nodes = static_cast<std::size_t>(state.range(0));
  if (!traffic_on) preset.sim.traffic = {};
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_dynamic(preset.scenario, preset.sim, 0));
  }
}

void BM_ConvergecastTick(benchmark::State& state) { run_convergecast(state, true); }
void BM_ConvergecastBase(benchmark::State& state) { run_convergecast(state, false); }
BENCHMARK(BM_ConvergecastTick)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ConvergecastBase)->Arg(64)->Unit(benchmark::kMillisecond);

// -- partitioned dynamic engine: single queue vs regioned lanes -------

/// The 100k-node mobile-churn acceptance row for the spatially
/// partitioned event engine: a full dynamic run (protocol build-out,
/// NDP beaconing, waypoint mobility, crashes) on one queue versus 16
/// regions x 4 intra threads. Reports are bitwise identical (tests
/// assert it); the machine-independent gate is the partitioned/serial
/// *ratio*, which must show a real speedup, not parity. One iteration
/// per measurement — the rows are seconds-scale.
void run_dynamic_partitioned(benchmark::State& state, std::uint32_t regions, unsigned threads) {
  api::scenario_spec spec = scaling_spec(state.range(0));
  spec.method = api::method_spec::protocol();
  spec.protocol.agent.round_timeout = 0.5;
  spec.protocol.channel.base_delay = 0.01;
  spec.cbtc.intra_threads = threads;
  api::sim_spec dyn;
  dyn.horizon = 6.0;
  dyn.settle = 3.0;
  dyn.sample_every = 1.5;
  dyn.mobility = {.kind = api::mobility_kind::random_waypoint,
                  .min_speed = 2.0,
                  .max_speed = 8.0,
                  .tick = 0.5,
                  .start = 3.0};
  dyn.failures.random_crashes = state.range(0) / 100;
  dyn.failures.window_begin = 3.5;
  dyn.failures.window_end = 5.5;
  dyn.partition.regions = regions;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eng.run_dynamic(spec, dyn, 0));
  }
  state.SetComplexityN(state.range(0));
}

void BM_DynamicTickSerial(benchmark::State& state) { run_dynamic_partitioned(state, 1, 1); }
void BM_DynamicTickPartitioned(benchmark::State& state) {
  run_dynamic_partitioned(state, 16, 4);
}
BENCHMARK(BM_DynamicTickSerial)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynamicTickPartitioned)->Arg(100000)->Iterations(1)->Unit(benchmark::kMillisecond);

// -- substrate micro-benchmarks (not scenario orchestration) ----------

void BM_MaxPowerGraphGrid(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph(positions, pm.max_range()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphGrid)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_MaxPowerGraphBrute(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::build_max_power_graph_brute(positions, pm.max_range()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MaxPowerGraphBrute)->RangeMultiplier(2)->Range(100, 1600)->Complexity();

void BM_SpatialGridBuild(benchmark::State& state) {
  const auto positions = make_positions(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::spatial_grid(positions, pm.max_range()));
  }
}
BENCHMARK(BM_SpatialGridBuild)->RangeMultiplier(4)->Range(100, 6400);

void BM_SpatialGridQuery(benchmark::State& state) {
  const auto positions = make_positions(1600);
  const geom::spatial_grid grid(positions, pm.max_range());
  std::size_t i = 0;
  std::vector<geom::point_index> out;
  for (auto _ : state) {
    out.clear();
    grid.query_radius_into(positions[i++ % positions.size()], pm.max_range(),
                           geom::spatial_grid::npos, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SpatialGridQuery);

}  // namespace

/// BENCHMARK_MAIN with one addition: an explicit `--out PATH` (or
/// `--out=PATH`) flag for the JSON record — shorthand for
/// --benchmark_out=PATH --benchmark_out_format=json, so callers like
/// CI never depend on the process cwd. Without an output flag the run
/// writes no file (no more stray BENCH_scaling.json in the cwd).
int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  std::string out_path;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (i > 0 && std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  std::string out_flag = "--benchmark_out=" + out_path;
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!out_path.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
