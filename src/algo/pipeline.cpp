#include "algo/pipeline.h"

#include "graph/euclidean.h"
#include "util/parallel.h"

namespace cbtc::algo {

topology_result apply_optimizations(cbtc_result grown, std::span<const geom::vec2> positions,
                                    const radio::link_model& link, const optimization_set& opts) {
  topology_result out;
  const cbtc_params params = grown.params;
  // The growth outcome carries the instance's intra-thread knob: the
  // symmetric core/closure construction and the op3 classification
  // run on the same process-wide executor as the growth loop did.
  util::thread_pool pool(params.intra_threads);
  out.growth = opts.shrink_back ? apply_shrink_back(std::move(grown)) : std::move(grown);

  out.asymmetric_applied = opts.asymmetric_removal && asymmetric_removal_applicable(params.alpha);
  out.topology = out.asymmetric_applied ? out.growth.symmetric_core(pool)
                                        : out.growth.symmetric_closure(pool);

  // op3 dispatch: the angle-based Theorem 3.6 pass is only sound when
  // required power is monotone in length (unit disk), so a
  // non-isotropic link auto-routes a pairwise_removal request to the
  // gain-aware pass; opts.gain_aware forces that pass unconditionally.
  const bool want_op3 = opts.pairwise_removal || opts.gain_aware;
  const bool use_gain = opts.gain_aware || (opts.pairwise_removal && !link.is_isotropic());
  if (want_op3 && use_gain) {
    const gain_removal_options gopts{.remove_all = opts.pairwise.remove_all,
                                     .gate = opts.pairwise.gate};
    gain_removal_result gr =
        apply_gain_aware_removal(out.topology, graph::build_max_power_graph(positions, link, pool),
                                 positions, link, gopts, pool);
    out.topology = std::move(gr.topology);
    out.redundant_edges = gr.redundant_edges;
    out.removed_edges = gr.removed_edges;
    out.restored_edges = gr.restored_edges;
    out.gain_aware_applied = true;
  } else if (want_op3) {
    pairwise_result pr = apply_pairwise_removal(out.topology, positions, opts.pairwise, pool);
    out.topology = std::move(pr.topology);
    out.redundant_edges = pr.redundant_edges;
    out.removed_edges = pr.removed_edges;
  }
  return out;
}

topology_result build_topology(std::span<const geom::vec2> positions,
                               const radio::link_model& link, const cbtc_params& params,
                               const optimization_set& opts) {
  return apply_optimizations(run_cbtc(positions, link, params), positions, link, opts);
}

}  // namespace cbtc::algo
