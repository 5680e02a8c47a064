#include "algo/analysis.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/metrics.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace cbtc::algo {
namespace {

/// The first two desiderata — subgraph of G_R and partition equality —
/// are identical under every radio model (violations land in the
/// report in this order, before the per-node requirement scan).
void check_structure(const graph::undirected_graph& topology,
                     const graph::undirected_graph& gr, const util::thread_pool& pool,
                     invariant_report& rep) {
  rep.subgraph_of_max_power = true;
  for (const graph::edge& e : topology.edges()) {
    if (!gr.has_edge(e.u, e.v)) {
      rep.subgraph_of_max_power = false;
      rep.violations.push_back("edge (" + std::to_string(e.u) + ", " + std::to_string(e.v) +
                               ") not in G_R");
    }
  }

  rep.connectivity_preserved = graph::same_connectivity(topology, gr, pool);
  if (!rep.connectivity_preserved) {
    rep.violations.push_back("component partition differs: topology has " +
                             std::to_string(graph::connected_components(topology).count) +
                             " components, G_R has " +
                             std::to_string(graph::connected_components(gr).count));
  }
}

/// The third desideratum: every node's requirement `need(u)` (a radius,
/// or a power under per-link gains) stays within `cap`. Reduced in
/// fixed block order, so the flag and the violation order are
/// identical for any pool width.
template <class Need>
void check_requirement(std::size_t n, const util::thread_pool& pool, const char* what,
                       const char* cap_name, double cap, const Need& need,
                       invariant_report& rep) {
  constexpr double tol = 1e-9;
  struct partial {
    bool ok{true};
    std::vector<std::string> violations;
  };
  const partial scan = pool.reduce<partial>(
      n, {},
      [&](std::size_t lo, std::size_t hi) {
        partial part;
        for (std::size_t u = lo; u < hi; ++u) {
          const double r = need(static_cast<graph::node_id>(u));
          if (r > cap * (1.0 + tol)) {
            part.ok = false;
            part.violations.push_back("node " + std::to_string(u) + " needs " + what + " " +
                                      std::to_string(r) + " > " + cap_name + " = " +
                                      std::to_string(cap));
          }
        }
        return part;
      },
      [](partial& total, const partial& p) {
        total.ok = total.ok && p.ok;
        total.violations.insert(total.violations.end(), p.violations.begin(),
                                p.violations.end());
      });
  rep.radii_within_max_range = scan.ok;
  rep.violations.insert(rep.violations.end(), scan.violations.begin(), scan.violations.end());
}

}  // namespace

invariant_report check_invariants(const graph::undirected_graph& topology,
                                  std::span<const geom::vec2> positions,
                                  const radio::link_model& link,
                                  const graph::undirected_graph& max_power_graph,
                                  const util::thread_pool& pool) {
  invariant_report rep;
  check_structure(topology, max_power_graph, pool, rep);
  if (link.is_isotropic()) {
    check_requirement(topology.num_nodes(), pool, "radius", "R", link.max_range(),
                      [&](graph::node_id u) {
                        return graph::node_radius(topology, positions, u, 0.0);
                      },
                      rep);
  } else {
    // Under per-link gains the worst incident link of every node must
    // close within the maximum power P.
    check_requirement(topology.num_nodes(), pool, "power", "P", link.max_power(),
                      [&](graph::node_id u) {
                        double need = 0.0;
                        for (const graph::node_id v : topology.neighbors(u)) {
                          need = std::max(need, link.required_power(u, v, positions[u],
                                                                    positions[v]));
                        }
                        return need;
                      },
                      rep);
  }
  return rep;
}

}  // namespace cbtc::algo
