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

std::vector<double> node_result::directions() const {
  std::vector<double> dirs;
  dirs.reserve(neighbors.size());
  for (const neighbor_record& r : neighbors) {
    // A neighbor at distance zero has no meaningful bearing (the paper
    // implicitly assumes distinct positions); it contributes no
    // directional coverage.
    if (r.distance > 0.0) dirs.push_back(r.direction);
  }
  return dirs;
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
/// id) order. The hot growth sort moves these, and a 32-byte record
/// shared with the per-link case measured 10-20% slower.
struct distance_candidate {
  node_id id;
  double distance;
  double direction;

  [[nodiscard]] double key() const { return distance; }
};
static_assert(sizeof(distance_candidate) == 24);

/// A candidate under per-link gains: discovered in (required link
/// power, id) order, the order the Increase(p) schedule reaches them.
struct link_candidate {
  node_id id;
  double distance;
  double direction;
  double req_power;  // p(d) / gain: what closes the link

  [[nodiscard]] double key() const { return req_power; }
};

template <bool Isotropic>
using candidate = std::conditional_t<Isotropic, distance_candidate, link_candidate>;

/// Reused per-chunk growth buffers: candidate discovery refills these
/// flat arrays instead of materializing fresh vectors for every node,
/// which is where the allocator traffic went at 100k-1M nodes. Growth
/// results are per-slot, so the chunking cannot change them.
template <bool Isotropic>
struct growth_arena {
  std::vector<geom::point_index> hits;
  std::vector<candidate<Isotropic>> cands;
  std::vector<double> dirs;
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
    const geom::vec2 d = positions[v] - pu;
    if constexpr (Isotropic) {
      arena.cands.push_back({v, d.norm(), d.bearing()});
    } else {
      const double dist = d.norm();
      const double req = link.required_power_at(dist, u, v, pu, positions[v]);
      if (req > link.max_power() * (1.0 + 1e-12)) continue;  // never decodable
      arena.cands.push_back({v, dist, d.bearing(), req});
    }
  }
  using cand = candidate<Isotropic>;
  std::sort(arena.cands.begin(), arena.cands.end(), [](const cand& a, const cand& b) {
    return a.key() < b.key() || (a.key() == b.key() && a.id < b.id);
  });
}

/// Keeps the documented node_result invariant (neighbors sorted by
/// (distance, id)) after a growth pass that discovered them in
/// required-power order; isotropic growth discovers them in that order.
void sort_neighbors_by_distance(node_result& res) {
  std::sort(res.neighbors.begin(), res.neighbors.end(),
            [](const neighbor_record& a, const neighbor_record& b) {
              return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
            });
}

/// Figure 1, executed exactly: p <- p0; while (p < P and gap-alpha(D)):
/// p <- min(Increase(p), P); broadcast and absorb everyone in range. A
/// broadcast at p reaches the candidates within range(p), or under
/// per-link gains those with req_power <= p (one-ulp tolerance, the
/// medium's decodability test).
template <bool Isotropic>
node_result run_discrete(std::span<const candidate<Isotropic>> cands,
                         const radio::link_model& link, const cbtc_params& params, double p0,
                         std::vector<double>& dirs) {
  node_result res;
  const double max_power = link.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    const double reach = Isotropic ? link.power().range(p) : p * (1.0 + 1e-12);
    while (next < cands.size() && cands[next].key() <= reach) {
      const candidate<Isotropic>& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  if constexpr (!Isotropic) sort_neighbors_by_distance(res);
  return res;
}

/// Idealized continuous growth: admit candidates one at a time in
/// discovery order; stop at the first prefix with no alpha-gap. Each
/// admission is its own power level, so shrink-back and reconfiguration
/// tags behave exactly like an infinitely fine discrete schedule.
template <bool Isotropic>
node_result run_continuous(std::span<const candidate<Isotropic>> cands,
                           const radio::link_model& link, const cbtc_params& params,
                           std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const candidate<Isotropic>& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    double p;
    if constexpr (Isotropic) {
      p = link.power().required_power(c.distance);
    } else {
      p = std::min(c.req_power, link.max_power());
    }
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
    if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
  }
  if (!covered) covered = !geom::has_alpha_gap(dirs, params.alpha);

  if (covered) {
    res.final_power = res.level_powers.empty() ? 0.0 : res.level_powers.back();
    res.boundary = false;
  } else {
    // Ran out of reachable nodes with a gap left: boundary node, which
    // per the algorithm broadcasts at maximum power.
    res.level_powers.push_back(link.max_power());
    res.final_power = link.max_power();
    res.boundary = true;
  }
  if constexpr (!Isotropic) sort_neighbors_by_distance(res);
  return res;
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
                     ? run_discrete<Isotropic>(arena.cands, link, params, p0, arena.dirs)
                     : run_continuous<Isotropic>(arena.cands, link, params, arena.dirs);
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
