#include "algo/oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "geom/angle.h"
#include "geom/spatial_grid.h"
#include "util/parallel.h"

namespace cbtc::algo {

bool node_result::knows(node_id v) const {
  return std::any_of(neighbors.begin(), neighbors.end(),
                     [v](const neighbor_record& r) { return r.id == v; });
}

double node_result::out_radius() const {
  double r = 0.0;
  for (const neighbor_record& rec : neighbors) r = std::max(r, rec.distance);
  return r;
}

graph::digraph cbtc_result::neighbor_digraph(const util::thread_pool& pool) const {
  return graph::assemble<graph::digraph>(
      nodes.size(), [&](node_id u) { return nodes[u].neighbors.size(); },
      [&](node_id u, std::span<node_id> out) {
        std::transform(nodes[u].neighbors.begin(), nodes[u].neighbors.end(), out.begin(),
                       [](const neighbor_record& r) { return r.id; });
        std::sort(out.begin(), out.end());
      },
      pool);
}

graph::undirected_graph cbtc_result::symmetric_closure(const util::thread_pool& pool) const {
  return neighbor_digraph(pool).symmetric_closure(pool);
}

graph::undirected_graph cbtc_result::symmetric_core(const util::thread_pool& pool) const {
  return neighbor_digraph(pool).symmetric_core(pool);
}

std::size_t cbtc_result::boundary_count() const {
  return static_cast<std::size_t>(
      std::count_if(nodes.begin(), nodes.end(), [](const node_result& n) { return n.boundary; }));
}

namespace {

/// One growth chunk: each worker refills one arena per 64 nodes
/// instead of allocating per node.
constexpr std::size_t growth_chunk = 64;

/// A candidate under isotropic propagation: discovered in (distance,
/// id) order. The hot growth sort moves these; a bearing is taken only
/// when a candidate is admitted (about a third are at paper density).
struct distance_candidate {
  node_id id;
  double distance;

  [[nodiscard]] double key() const { return distance; }
};
static_assert(sizeof(distance_candidate) == 16);

/// A candidate under per-link gains: discovered in (required link
/// power, id) order, the order the Increase(p) schedule reaches them.
struct link_candidate {
  node_id id;
  double distance;
  double req_power;  // p(d) / gain: what closes the link

  [[nodiscard]] double key() const { return req_power; }
};

template <bool Isotropic>
using candidate = std::conditional_t<Isotropic, distance_candidate, link_candidate>;

/// Reused per-chunk growth buffers: candidate discovery and the growth
/// kernels refill these flat arrays instead of materializing fresh
/// vectors for every node, which is where the allocator traffic went at
/// 100k-1M nodes. A node's result copies its records and levels out at
/// exact size. Growth results are per-slot, so the chunking cannot
/// change them.
template <bool Isotropic>
struct growth_arena {
  std::vector<geom::point_index> hits;
  std::vector<candidate<Isotropic>> cands;
  std::vector<neighbor_record> records;
  std::vector<double> levels;
  std::vector<double> dirs;  // bearings of the admitted, sorted: the gap test's input
};

/// Every node whose link to `u` closes at maximum power, sorted by
/// (key, id). The grid prunes by the longest feasible link; per-link
/// gains then drop the links that never close. Isotropic candidates
/// need no filter: the query radius R already decided.
template <bool Isotropic>
void candidates_into(node_id u, std::span<const geom::vec2> positions,
                     const geom::spatial_grid& grid, const radio::link_model& link,
                     growth_arena<Isotropic>& arena) {
  arena.hits.clear();
  arena.cands.clear();
  const geom::vec2 pu = positions[u];
  grid.query_radius_into(pu, link.max_candidate_range(), u, arena.hits);
  for (geom::point_index v : arena.hits) {
    const double dist = (positions[v] - pu).norm();
    if constexpr (Isotropic) {
      arena.cands.push_back({v, dist});
    } else {
      const double req = link.required_power_at(dist, u, v, pu, positions[v]);
      if (req > link.max_power() * (1.0 + 1e-12)) continue;  // never decodable
      arena.cands.push_back({v, dist, req});
    }
  }
  using cand = candidate<Isotropic>;
  std::sort(arena.cands.begin(), arena.cands.end(), [](const cand& a, const cand& b) {
    return a.key() < b.key() || (a.key() == b.key() && a.id < b.id);
  });
}

/// Opens a growth kernel's state for one node.
template <bool Isotropic>
void begin_node(growth_arena<Isotropic>& arena) {
  arena.records.clear();
  arena.levels.clear();
  arena.dirs.clear();
}

/// Admits candidate `c` of the node at `pu` at the newest level, power
/// tag `p`, taking its bearing here (only admitted candidates need
/// one). The gap test's directions stay sorted by insertion.
template <bool Isotropic>
void admit(const candidate<Isotropic>& c, std::span<const geom::vec2> positions, geom::vec2 pu,
           double p, growth_arena<Isotropic>& arena) {
  const double dir = (positions[c.id] - pu).bearing();
  const auto level = static_cast<std::uint32_t>(arena.levels.size() - 1);
  arena.records.push_back({c.id, c.distance, dir, level, p});
  if (c.distance > 0.0) {  // coincident: no bearing
    arena.dirs.insert(std::upper_bound(arena.dirs.begin(), arena.dirs.end(), dir), dir);
  }
}

/// The node's result: its records and levels copied out at exact size.
/// Keeps the documented node_result invariant (neighbors sorted by
/// (distance, id)) after a growth pass that discovered them in
/// required-power order; isotropic growth discovers them in that order.
template <bool Isotropic>
node_result finish_node(growth_arena<Isotropic>& arena, double final_power, bool boundary) {
  if constexpr (!Isotropic) {
    std::sort(arena.records.begin(), arena.records.end(),
              [](const neighbor_record& a, const neighbor_record& b) {
                return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
              });
  }
  node_result res;
  res.neighbors.assign(arena.records.begin(), arena.records.end());
  res.level_powers.assign(arena.levels.begin(), arena.levels.end());
  res.final_power = final_power;
  res.boundary = boundary;
  return res;
}

/// Figure 1, executed exactly: p <- p0; while (p < P and gap-alpha(D)):
/// p <- min(Increase(p), P); broadcast and absorb everyone in range. A
/// broadcast at p reaches the candidates within range(p), or under
/// per-link gains those with req_power <= p (one-ulp tolerance, the
/// medium's decodability test).
template <bool Isotropic>
node_result run_discrete(std::span<const geom::vec2> positions, geom::vec2 pu,
                         const radio::link_model& link, const cbtc_params& params, double p0,
                         growth_arena<Isotropic>& arena) {
  begin_node(arena);
  const std::span<const candidate<Isotropic>> cands = arena.cands;
  const double max_power = link.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered

  while (p < max_power && geom::has_sorted_alpha_gap(arena.dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    arena.levels.push_back(p);
    const double reach = Isotropic ? link.power().range(p) : p * (1.0 + 1e-12);
    for (; next < cands.size() && cands[next].key() <= reach; ++next) {
      admit<Isotropic>(cands[next], positions, pu, p, arena);
    }
  }
  const double final_power = arena.levels.empty() ? p0 : arena.levels.back();
  return finish_node(arena, final_power, geom::has_sorted_alpha_gap(arena.dirs, params.alpha));
}

/// Idealized continuous growth: admit candidates one at a time in
/// discovery order; stop at the first prefix with no alpha-gap. Each
/// admission is its own power level, so shrink-back and reconfiguration
/// tags behave exactly like an infinitely fine discrete schedule.
template <bool Isotropic>
node_result run_continuous(std::span<const geom::vec2> positions, geom::vec2 pu,
                           const radio::link_model& link, const cbtc_params& params,
                           growth_arena<Isotropic>& arena) {
  begin_node(arena);
  bool covered = false;
  for (const candidate<Isotropic>& c : arena.cands) {
    if (!geom::has_sorted_alpha_gap(arena.dirs, params.alpha)) {
      covered = true;
      break;
    }
    double p;
    if constexpr (Isotropic) {
      p = link.power().required_power(c.distance);
    } else {
      p = std::min(c.req_power, link.max_power());
    }
    arena.levels.push_back(p);
    admit<Isotropic>(c, positions, pu, p, arena);
  }
  if (!covered) covered = !geom::has_sorted_alpha_gap(arena.dirs, params.alpha);

  if (covered) {
    return finish_node(arena, arena.levels.empty() ? 0.0 : arena.levels.back(), false);
  }
  // Ran out of reachable nodes with a gap left: boundary node, which
  // per the algorithm broadcasts at maximum power.
  arena.levels.push_back(link.max_power());
  return finish_node(arena, link.max_power(), true);
}

/// Grows every node into `nodes`. Growth is a pure per-node computation
/// over the immutable grid, so the parallel loop is deterministic by
/// construction: node u's outcome lands in slot u no matter which
/// thread ran it.
template <bool Isotropic>
void grow_all(std::span<const geom::vec2> positions, const geom::spatial_grid& grid,
              const radio::link_model& link, const cbtc_params& params, double p0,
              const util::thread_pool& pool, std::vector<node_result>& nodes) {
  pool.parallel_for_chunks(positions.size(), growth_chunk, [&](std::size_t lo, std::size_t hi) {
    growth_arena<Isotropic> arena;
    for (std::size_t u = lo; u < hi; ++u) {
      candidates_into<Isotropic>(static_cast<node_id>(u), positions, grid, link, arena);
      nodes[u] = params.mode == growth_mode::discrete
                     ? run_discrete<Isotropic>(positions, positions[u], link, params, p0, arena)
                     : run_continuous<Isotropic>(positions, positions[u], link, params, arena);
    }
  });
}

}  // namespace

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params) {
  if (params.alpha <= 0.0 || params.alpha >= geom::two_pi)
    throw std::invalid_argument("run_cbtc: alpha must be in (0, 2*pi)");
  if (params.increase_factor <= 1.0)
    throw std::invalid_argument("run_cbtc: increase_factor must be > 1");

  const double p0 = params.initial_power > 0.0
                        ? params.initial_power
                        : link.power().required_power(link.max_range() / 16.0);

  cbtc_result result;
  result.params = params;
  if (positions.empty()) return result;

  const geom::spatial_grid grid(positions, link.max_candidate_range());
  result.nodes.resize(positions.size());
  const util::thread_pool pool(params.intra_threads);
  // The isotropic case keeps the paper's distance arithmetic; the
  // choice is made once per run, not per candidate.
  if (link.is_isotropic()) {
    grow_all<true>(positions, grid, link, params, p0, pool, result.nodes);
  } else {
    grow_all<false>(positions, grid, link, params, p0, pool, result.nodes);
  }
  return result;
}

}  // namespace cbtc::algo
