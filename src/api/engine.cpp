#include "api/engine.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "algo/augment.h"
#include "algo/stc.h"
#include "baselines/baselines.h"
#include "geom/spatial_order.h"
#include "graph/euclidean.h"
#include "graph/interference.h"
#include "graph/metrics.h"
#include "graph/robustness.h"
#include "util/parallel.h"

namespace cbtc::api {
namespace {

graph::undirected_graph build_baseline(const method_spec& m,
                                       std::span<const geom::vec2> positions, double max_range,
                                       const graph::undirected_graph& max_power_graph) {
  switch (m.baseline) {
    case baseline_kind::euclidean_mst:
      return baselines::euclidean_mst(positions, max_range);
    case baseline_kind::relative_neighborhood:
      return baselines::relative_neighborhood_graph(positions, max_range);
    case baseline_kind::gabriel:
      return baselines::gabriel_graph(positions, max_range);
    case baseline_kind::yao:
      return baselines::yao_graph(positions, max_range, m.yao_cones);
    case baseline_kind::knn:
      return baselines::knn_graph(positions, max_range, m.knn_k);
    case baseline_kind::max_power:
      return max_power_graph;
  }
  throw std::logic_error("engine: unknown baseline kind");
}

/// The graph `g` (over permuted labels) mapped back to original labels:
/// node perm[k] of the result owns node k's neighbors, each mapped
/// through perm and re-sorted. Assembled as flat CSR in parallel slots.
graph::undirected_graph relabel_graph(const graph::undirected_graph& g,
                                      std::span<const std::uint32_t> perm,
                                      const util::thread_pool& pool) {
  const std::size_t n = g.num_nodes();
  std::vector<std::size_t> off(n + 1, 0);
  {
    std::vector<std::size_t> deg(n);
    pool.parallel_for(n, [&](std::size_t k) { deg[perm[k]] = g.degree(static_cast<graph::node_id>(k)); });
    for (std::size_t u = 0; u < n; ++u) off[u + 1] = off[u] + deg[u];
  }
  std::vector<graph::node_id> flat(off[n]);
  pool.parallel_for(n, [&](std::size_t k) {
    const std::size_t u = perm[k];
    std::size_t w = off[u];
    for (const graph::node_id v : g.neighbors(static_cast<graph::node_id>(k))) flat[w++] = perm[v];
    std::sort(flat.begin() + static_cast<std::ptrdiff_t>(off[u]),
              flat.begin() + static_cast<std::ptrdiff_t>(off[u + 1]));
  });
  return graph::undirected_graph::from_csr(std::move(off), std::move(flat));
}

/// Oracle pipeline under a spatial relabeling: nodes are permuted into
/// Morton order (spatial neighbors become cache neighbors for the
/// growth loop and the scatter passes), the pipeline runs in permuted
/// label space, and the result — topology and growth records — is
/// mapped back to original labels before anything downstream (metrics,
/// invariants, reports) sees it. Shadowing gains hash node ids, so the
/// permuted run consults the original ids via link_model::relabeled.
algo::topology_result relabeled_build(std::span<const geom::vec2> positions,
                                      const radio::link_model& link,
                                      const algo::cbtc_params& params,
                                      const algo::optimization_set& opts,
                                      const util::thread_pool& pool) {
  const std::size_t n = positions.size();
  const double cell = link.max_range();
  const std::vector<std::uint32_t> perm = geom::spatial_order(positions, cell);
  std::vector<geom::vec2> rpos(n);
  for (std::size_t k = 0; k < n; ++k) rpos[k] = positions[perm[k]];

  algo::topology_result t = algo::build_topology(
      rpos, link.relabeled(std::vector<std::uint32_t>(perm)), params, opts);

  t.topology = relabel_graph(t.topology, perm, pool);
  algo::cbtc_result growth;
  growth.params = t.growth.params;
  growth.nodes.resize(n);
  pool.parallel_for(n, [&](std::size_t k) {
    algo::node_result nr = std::move(t.growth.nodes[k]);
    for (algo::neighbor_record& rec : nr.neighbors) rec.id = perm[rec.id];
    // Restore the canonical (distance, id) neighbor order — a strict
    // total order (ids are unique), so this is exactly the order the
    // non-relabeled run produces whenever the neighbor sets match.
    std::sort(nr.neighbors.begin(), nr.neighbors.end(),
              [](const algo::neighbor_record& a, const algo::neighbor_record& b) {
                return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
              });
    growth.nodes[perm[k]] = std::move(nr);
  });
  t.growth = std::move(growth);
  return t;
}

/// Runs the seed blocks `blocks` of the batch over `seeds`: threads
/// claim whole seed blocks from the process-wide executor, fold each
/// run into the block's partial as soon as it finishes (the report is
/// dropped immediately — peak memory is one in-flight report and one
/// partial per thread), and hand every finished partial to `sink`
/// (serialized by a mutex, in completion order). The same executor
/// serves any intra-instance parallelism inside run_one, so batch and
/// intra threads compose instead of multiplying.
template <class Batch, class RunOne, class Sink>
void stream_blocks(seed_range seeds, block_range blocks, unsigned num_threads,
                   const RunOne& run_one, const Sink& sink) {
  const std::uint64_t n = seeds.count;
  const std::uint64_t total_blocks = engine::num_batch_blocks(seeds);
  if (blocks.first > total_blocks || blocks.count > total_blocks - blocks.first) {
    throw std::out_of_range("engine: block range [" + std::to_string(blocks.first) + ", " +
                            std::to_string(blocks.first + blocks.count) + ") exceeds the batch's " +
                            std::to_string(total_blocks) + " seed blocks");
  }
  if (blocks.count == 0) return;

  const unsigned threads =
      std::clamp<unsigned>(util::resolve_threads(num_threads), 1,
                           static_cast<unsigned>(std::min<std::uint64_t>(blocks.count, 1024)));
  util::thread_pool pool(threads);
  std::mutex sink_mu;
  pool.parallel_for_chunks(
      static_cast<std::size_t>(blocks.count), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          const std::uint64_t block = blocks.first + static_cast<std::uint64_t>(b);
          Batch partial;
          const std::uint64_t end = std::min(n, (block + 1) * engine::batch_block_size);
          for (std::uint64_t i = block * engine::batch_block_size; i < end; ++i) {
            partial.accumulate(run_one(seeds.first + i));
          }
          const std::lock_guard<std::mutex> lock(sink_mu);
          sink(block, partial);
        }
      });
}

/// Whole-batch reduction on top of stream_blocks: partials land in a
/// per-block slot and merge in block-index order at the end, so the
/// aggregate is bitwise independent of which thread finished when.
template <class Batch, class RunOne>
Batch stream_batch(seed_range seeds, unsigned num_threads, const RunOne& run_one) {
  Batch total;
  if (seeds.count == 0) return total;
  std::vector<Batch> partials(static_cast<std::size_t>(engine::num_batch_blocks(seeds)));
  stream_blocks<Batch>(seeds, {0, engine::num_batch_blocks(seeds)}, num_threads, run_one,
                       [&](std::uint64_t block, const Batch& p) {
                         partials[static_cast<std::size_t>(block)] = p;
                       });
  for (const Batch& p : partials) merge(total, p);
  return total;
}

}  // namespace

run_report engine::run(const scenario_spec& spec, std::uint64_t seed) const {
  return run_internal(spec, seed, nullptr, nullptr);
}

run_report engine::run_internal(const scenario_spec& spec, std::uint64_t seed,
                                std::vector<geom::vec2>* positions_out,
                                graph::undirected_graph* max_power_out) const {
  std::vector<geom::vec2> positions = spec.make_positions(seed);
  const radio::link_model link = spec.link(seed);
  const radio::power_model& pm = link.power();
  const double R = pm.max_range();

  run_report r;
  r.seed = seed;
  r.nodes = positions.size();

  util::thread_pool pool(spec.cbtc.intra_threads);
  graph::undirected_graph gr = graph::build_max_power_graph(positions, link, pool);
  r.max_power_edges = gr.num_edges();

  const auto adopt = [&r](algo::topology_result t) {
    r.growth = std::move(t.growth);
    r.has_growth = true;
    r.topology = std::move(t.topology);
    r.redundant_edges = t.redundant_edges;
    r.removed_edges = t.removed_edges;
  };
  switch (spec.method.k) {
    case method_spec::kind::oracle:
      if (positions.size() >= spec.cbtc.relabel_min_nodes && positions.size() > 1 &&
          link.max_range() > 0.0) {
        adopt(relabeled_build(positions, link, spec.cbtc, spec.opts, pool));
      } else {
        adopt(algo::build_topology(positions, link, spec.cbtc, spec.opts));
      }
      break;
    case method_spec::kind::protocol: {
      proto::protocol_run_config cfg = spec.protocol;
      cfg.agent.params = spec.cbtc;
      // The distributed agents implement the deployable Increase(p)
      // schedule only; record that in the outcome's params instead of
      // silently carrying a continuous-mode request through.
      cfg.agent.params.mode = algo::growth_mode::discrete;
      cfg.seed = spec.base_seed + seed;
      cfg.send_drop_notices =
          spec.opts.asymmetric_removal && algo::asymmetric_removal_applicable(spec.cbtc.alpha);
      proto::protocol_run_result pr = proto::run_protocol(positions, link, cfg);
      r.has_protocol_stats = true;
      r.protocol_stats = pr.stats;
      r.completion_time = pr.completion_time;
      adopt(algo::apply_optimizations(std::move(pr.outcome), positions, link, spec.opts));
      break;
    }
    case method_spec::kind::stc: {
      // No growth record: STC works directly off the gain-aware
      // candidate graph, like the geometric baselines.
      algo::stc_result sr = algo::build_stc_topology(gr, positions, link, pool);
      r.topology = std::move(sr.topology);
      break;
    }
    case method_spec::kind::baseline:
      r.topology = build_baseline(spec.method, positions, R, gr);
      break;
  }
  if (r.has_growth) r.boundary_nodes = r.growth.boundary_count();

  if (spec.post.bridge_augmentation) {
    r.topology = algo::augment_bridge_resilience(r.topology, positions, R).topology;
  }

  r.edges = r.topology.num_edges();
  r.avg_degree = graph::average_degree(r.topology);

  const bool nominal_max_power = spec.method.k == method_spec::kind::baseline &&
                                 spec.method.baseline == baseline_kind::max_power;
  r.node_powers.resize(r.nodes);
  if (nominal_max_power) {
    // No topology control: every node transmits at maximum power, so
    // the radius is nominally R (the paper's Table 1 convention).
    std::fill(r.node_powers.begin(), r.node_powers.end(), pm.max_power());
    r.avg_radius = r.nodes == 0 ? 0.0 : R;
    r.max_radius = r.nodes == 0 ? 0.0 : R;
  } else {
    // Per-node radius pass: powers land per slot, the sum/max reduce in
    // fixed block order — identical output for any intra_threads. The
    // radius metric stays geometric (the paper's rad_u) under every
    // propagation model; the power is the per-link budget, which for
    // isotropic gains is exactly p(rad_u).
    const bool isotropic = link.is_isotropic();
    struct radius_partial {
      double sum{0.0};
      double max{0.0};
    };
    const radius_partial radii = pool.reduce<radius_partial>(
        r.nodes, {},
        [&](std::size_t lo, std::size_t hi) {
          radius_partial part;
          for (std::size_t u = lo; u < hi; ++u) {
            const double rad = graph::node_radius(r.topology, positions, u, R);
            if (isotropic) {
              r.node_powers[u] = pm.required_power(rad);
            } else {
              const auto uid = static_cast<graph::node_id>(u);
              double need = 0.0;
              for (const graph::node_id v : r.topology.neighbors(uid)) {
                need = std::max(need, link.required_power(uid, v, positions[u], positions[v]));
              }
              // Isolated (boundary) nodes still broadcast at P, the
              // same convention the geometric pass encodes via the
              // isolated radius R.
              r.node_powers[u] = r.topology.degree(uid) == 0 ? pm.max_power() : need;
            }
            part.sum += rad;
            part.max = std::max(part.max, rad);
          }
          return part;
        },
        [](radius_partial& total, const radius_partial& p) {
          total.sum += p.sum;
          total.max = std::max(total.max, p.max);
        });
    r.max_radius = radii.max;
    r.avg_radius = r.nodes == 0 ? 0.0 : radii.sum / static_cast<double>(r.nodes);
  }
  double power_sum = 0.0;
  for (const double p : r.node_powers) power_sum += p;
  r.avg_power = r.nodes == 0 ? 0.0 : power_sum / static_cast<double>(r.nodes);

  r.invariants = algo::check_invariants(r.topology, positions, link, gr, pool);

  if (spec.metrics.stretch) {
    const graph::stretch_stats ps = graph::power_stretch(r.topology, gr, positions, pm.exponent(),
                                                         spec.metrics.stretch_samples, pool);
    r.power_stretch = ps.mean;
    r.power_stretch_max = ps.max;
    const graph::stretch_stats hs =
        graph::hop_stretch(r.topology, gr, spec.metrics.stretch_samples, pool);
    r.hop_stretch = hs.mean;
    r.hop_stretch_max = hs.max;
  }
  if (spec.metrics.interference) {
    const graph::interference_stats s =
        graph::topology_interference(r.topology, positions, pool);
    r.interference_mean = s.mean;
    r.interference_max = s.max;
  }
  if (spec.metrics.robustness) {
    r.cut_vertices = graph::articulation_points(r.topology).size();
  }
  // Last use of both: hand them off without copying (large instances).
  if (positions_out) *positions_out = std::move(positions);
  if (max_power_out) *max_power_out = std::move(gr);
  return r;
}

std::vector<run_report> engine::run_all(const scenario_spec& spec, seed_range seeds,
                                        unsigned num_threads) const {
  const std::size_t n = static_cast<std::size_t>(seeds.count);
  std::vector<run_report> reports(n);
  if (n == 0) return reports;

  const unsigned threads =
      std::clamp<unsigned>(util::resolve_threads(num_threads), 1, static_cast<unsigned>(n));
  util::thread_pool pool(threads);
  // One instance per chunk: per-slot writes make the result identical
  // for any thread count; the executor lets nested intra-instance
  // loops inside run() share the same workers.
  pool.parallel_for_chunks(n, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) reports[i] = run(spec, seeds.first + i);
  });
  return reports;
}

batch_report engine::run_batch(const scenario_spec& spec, seed_range seeds,
                               unsigned num_threads) const {
  return stream_batch<batch_report>(seeds, num_threads,
                                    [&](std::uint64_t seed) { return run(spec, seed); });
}

dynamic_batch_report engine::run_batch(const scenario_spec& spec, const sim_spec& sim,
                                       seed_range seeds, unsigned num_threads) const {
  return stream_batch<dynamic_batch_report>(
      seeds, num_threads, [&](std::uint64_t seed) { return run_dynamic(spec, sim, seed); });
}

lifetime_batch_report engine::run_batch(const scenario_spec& spec, const lifetime_spec& life,
                                        seed_range seeds, unsigned num_threads) const {
  return stream_batch<lifetime_batch_report>(
      seeds, num_threads, [&](std::uint64_t seed) { return run_lifetime(spec, life, seed); });
}

void engine::run_batch_blocks(
    const scenario_spec& spec, seed_range seeds, block_range blocks, unsigned num_threads,
    const std::function<void(std::uint64_t, const batch_report&)>& sink) const {
  stream_blocks<batch_report>(seeds, blocks, num_threads,
                              [&](std::uint64_t seed) { return run(spec, seed); }, sink);
}

void engine::run_batch_blocks(
    const scenario_spec& spec, const sim_spec& sim, seed_range seeds, block_range blocks,
    unsigned num_threads,
    const std::function<void(std::uint64_t, const dynamic_batch_report&)>& sink) const {
  stream_blocks<dynamic_batch_report>(
      seeds, blocks, num_threads,
      [&](std::uint64_t seed) { return run_dynamic(spec, sim, seed); }, sink);
}

void engine::run_batch_blocks(
    const scenario_spec& spec, const lifetime_spec& life, seed_range seeds, block_range blocks,
    unsigned num_threads,
    const std::function<void(std::uint64_t, const lifetime_batch_report&)>& sink) const {
  stream_blocks<lifetime_batch_report>(
      seeds, blocks, num_threads,
      [&](std::uint64_t seed) { return run_lifetime(spec, life, seed); }, sink);
}

void lifetime_batch_report::accumulate(const lifetime_report& r) {
  ++runs;
  first_death.add(r.first_death);
  quarter_dead.add(r.quarter_dead);
  field_partition.add(r.field_partition);
}

void batch_report::accumulate(const run_report& r) {
  ++runs;
  if (!r.connectivity_preserved()) ++connectivity_failures;
  edges.add(static_cast<double>(r.edges));
  degree.add(r.avg_degree);
  radius.add(r.avg_radius);
  max_radius.add(r.max_radius);
  tx_power.add(r.avg_power);
  boundary.add(static_cast<double>(r.boundary_nodes));
  power_stretch.add(r.power_stretch);
  power_stretch_max.add(r.power_stretch_max);
  hop_stretch.add(r.hop_stretch);
  hop_stretch_max.add(r.hop_stretch_max);
  interference.add(r.interference_mean);
  cut_vertices.add(static_cast<double>(r.cut_vertices));
  removed_edges.add(static_cast<double>(r.removed_edges));
  if (r.has_protocol_stats) {
    has_protocol_stats = true;
    messages.add(static_cast<double>(r.protocol_stats.broadcasts + r.protocol_stats.unicasts));
    deliveries.add(static_cast<double>(r.protocol_stats.deliveries));
    tx_energy.add(r.protocol_stats.tx_energy);
    completion_time.add(r.completion_time);
  }
}

batch_report reduce(std::span<const run_report> reports) {
  batch_report b;
  for (const run_report& r : reports) b.accumulate(r);
  return b;
}

}  // namespace cbtc::api
