// The execution engine of the cbtc::api façade.
//
// `engine::run` executes one scenario instance end to end: deploy
// nodes, run the selected method (centralized oracle, distributed
// protocol on the event simulator, or a position-based baseline),
// apply the optimizations, and measure every requested metric.
//
// `engine::run_dynamic` composes a scenario with a sim_spec and plays
// the full Section 4 model: per-node reconfiguration agents (CBTC +
// NDP beaconing + the join/leave/aChange rules) on the event
// simulator, with mobility drivers and crash/restart injection, and
// periodic metric sampling into a dynamic_report.
//
// `engine::run_lifetime` runs the battery-attrition experiment of the
// paper's Discussion over the scenario's topology.
//
// The batch entry points fan a seed range across a thread pool (each
// instance is an independent, pure computation) and reduce reports
// into fixed-size seed-block partials that are merged in block order,
// so the aggregate statistics are bitwise identical regardless of
// `num_threads` and peak memory is bounded by the block partials, not
// the seed count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "api/report.h"
#include "api/scenario.h"
#include "api/sim_spec.h"

namespace cbtc::api {

/// Rounds until first death / 25% dead / the survivors' max-power
/// graph partitions (capped at lifetime_spec::max_rounds).
struct lifetime_report {
  double first_death{0.0};
  double quarter_dead{0.0};
  double field_partition{0.0};
};

/// Aggregate statistics over a batch of lifetime runs (same
/// accumulate/merge contract as batch_report).
struct lifetime_batch_report {
  std::uint64_t runs{0};
  exp::summary first_death;
  exp::summary quarter_dead;
  exp::summary field_partition;

  void accumulate(const lifetime_report& r);

  [[nodiscard]] bool operator==(const lifetime_batch_report&) const = default;
};

/// The field table of lifetime_batch_report (see batch_report's).
template <class F, class... R>
  requires(std::same_as<std::remove_const_t<R>, lifetime_batch_report> && ...)
void for_each_field(F&& f, R&... r) {
  f("runs", r.runs...);
  f("first_death", r.first_death...);
  f("quarter_dead", r.quarter_dead...);
  f("field_partition", r.field_partition...);
}

/// A contiguous range of seed-block indices within a batch (block `b`
/// covers seeds `[first + b*batch_block_size, ...)` of the full seed
/// range — indices are always relative to the whole batch, so a shard
/// running a sub-range produces the same partials the full run would).
struct block_range {
  std::uint64_t first{0};
  std::uint64_t count{0};
};

class engine {
 public:
  /// Seeds per streaming partial. Fixed — independent of thread count,
  /// shard count, and shard failures — so the block structure, and
  /// hence the block-ordered merge, is bitwise identical no matter who
  /// ran which block where.
  static constexpr std::uint64_t batch_block_size = 16;

  /// Number of seed blocks a batch over `seeds` decomposes into.
  [[nodiscard]] static std::uint64_t num_batch_blocks(seed_range seeds) {
    return (seeds.count + batch_block_size - 1) / batch_block_size;
  }

  /// Runs instance `seed` of the scenario.
  [[nodiscard]] run_report run(const scenario_spec& spec, std::uint64_t seed) const;

  /// Runs the scenario's canonical instance (seed 0).
  [[nodiscard]] run_report run(const scenario_spec& spec) const { return run(spec, 0); }

  /// Runs every seed in `seeds` and returns the reports in seed order.
  /// `num_threads` == 0 picks the hardware concurrency. Results do not
  /// depend on the thread count.
  [[nodiscard]] std::vector<run_report> run_all(const scenario_spec& spec, seed_range seeds,
                                                unsigned num_threads = 0) const;

  /// Streaming multi-seed reduction into aggregate statistics (memory
  /// bounded by seed-block partials; see the header comment).
  [[nodiscard]] batch_report run_batch(const scenario_spec& spec, seed_range seeds,
                                       unsigned num_threads = 0) const;

  /// Runs one dynamic (churn / mobility) instance of the scenario.
  [[nodiscard]] dynamic_report run_dynamic(const scenario_spec& spec, const sim_spec& sim,
                                           std::uint64_t seed = 0) const;

  /// Streaming multi-seed dynamic batch (same determinism and memory
  /// guarantees as the static overload).
  [[nodiscard]] dynamic_batch_report run_batch(const scenario_spec& spec, const sim_spec& sim,
                                               seed_range seeds, unsigned num_threads = 0) const;

  /// Runs the battery-attrition lifetime experiment on instance `seed`:
  /// builds the scenario's topology, then drains batteries round by
  /// round (beacons + routed flows) until the field partitions.
  [[nodiscard]] lifetime_report run_lifetime(const scenario_spec& spec, const lifetime_spec& life,
                                             std::uint64_t seed = 0) const;

  /// Streaming multi-seed lifetime batch (same determinism and memory
  /// guarantees as the static overload).
  [[nodiscard]] lifetime_batch_report run_batch(const scenario_spec& spec,
                                                const lifetime_spec& life, seed_range seeds,
                                                unsigned num_threads = 0) const;

  // ---- block-granular batch execution -------------------------------
  //
  // The building blocks `run_batch` is made of, exposed so a network
  // shard can execute a sub-range of a batch's seed blocks and stream
  // each finished partial out: the sink receives (block index, block
  // partial) once per block, serialized by an internal mutex but in
  // completion order — callers that need the batch aggregate must
  // collect and merge partials in block-index order, which is exactly
  // what `run_batch` and the shard dispatcher do. `blocks` indices are
  // relative to the full `seeds` range; throws std::out_of_range when
  // the range extends past num_batch_blocks(seeds).

  void run_batch_blocks(const scenario_spec& spec, seed_range seeds, block_range blocks,
                        unsigned num_threads,
                        const std::function<void(std::uint64_t, const batch_report&)>& sink) const;

  void run_batch_blocks(
      const scenario_spec& spec, const sim_spec& sim, seed_range seeds, block_range blocks,
      unsigned num_threads,
      const std::function<void(std::uint64_t, const dynamic_batch_report&)>& sink) const;

  void run_batch_blocks(
      const scenario_spec& spec, const lifetime_spec& life, seed_range seeds, block_range blocks,
      unsigned num_threads,
      const std::function<void(std::uint64_t, const lifetime_batch_report&)>& sink) const;

 private:
  /// `run` with the instance's deployment and max-power graph handed
  /// back, so callers that need them (run_lifetime) reuse instead of
  /// recomputing. Either out-pointer may be null.
  run_report run_internal(const scenario_spec& spec, std::uint64_t seed,
                          std::vector<geom::vec2>* positions_out,
                          graph::undirected_graph* max_power_out) const;
};

}  // namespace cbtc::api
