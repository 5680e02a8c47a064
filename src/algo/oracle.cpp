#include "algo/oracle.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

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

/// Candidate neighbors of one node, sorted by distance.
struct candidate {
  node_id id;
  double distance;
  double direction;
};

struct growth_arena;  // reused per-chunk growth buffers, defined below

/// Figure 1, executed exactly: p <- p0; while (p < P and gap-alpha(D)):
/// p <- min(Increase(p), P); broadcast and absorb everyone in range.
node_result run_discrete(std::span<const candidate> cands, const radio::power_model& power,
                         const cbtc_params& params, double p0, std::vector<double>& dirs) {
  node_result res;
  const double max_power = power.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    const double radius = power.range(p);
    while (next < cands.size() && cands[next].distance <= radius) {
      const candidate& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  return res;
}

/// Idealized continuous growth: admit candidates one at a time in
/// distance order; stop at the first prefix with no alpha-gap. Each
/// admission is its own power level, so shrink-back and reconfiguration
/// tags behave exactly like an infinitely fine discrete schedule.
node_result run_continuous(std::span<const candidate> cands, const radio::power_model& power,
                           const cbtc_params& params, std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const candidate& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    const double p = power.required_power(c.distance);
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
    res.level_powers.push_back(power.max_power());
    res.final_power = power.max_power();
    res.boundary = true;
  }
  return res;
}

/// Candidates under a per-link gain model: every node whose link to
/// `u` closes at maximum power, sorted by (required link power, id) —
/// the order the Increase(p) schedule discovers them in.
struct link_candidate {
  node_id id;
  double distance;
  double direction;
  double req_power;  // p(d) / gain: what closes the link
};

/// Reused per-chunk growth buffers: candidate discovery refills these
/// flat arrays instead of materializing fresh vectors for every node,
/// which is where the allocator traffic went at 100k-1M nodes. Growth
/// results are per-slot, so the chunking cannot change them.
struct growth_arena {
  std::vector<geom::point_index> hits;
  std::vector<candidate> cands;
  std::vector<link_candidate> link_cands;
  std::vector<double> dirs;
};

void candidates_into(node_id u, std::span<const geom::vec2> positions,
                     const geom::spatial_grid& grid, double max_range, growth_arena& arena) {
  arena.hits.clear();
  arena.cands.clear();
  const geom::vec2 pu = positions[u];
  grid.query_radius_into(pu, max_range, u, arena.hits);
  for (geom::point_index v : arena.hits) {
    const geom::vec2 d = positions[v] - pu;
    arena.cands.push_back({v, d.norm(), d.bearing()});
  }
  std::sort(arena.cands.begin(), arena.cands.end(), [](const candidate& a, const candidate& b) {
    return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
  });
}

void link_candidates_into(node_id u, std::span<const geom::vec2> positions,
                          const geom::spatial_grid& grid, const radio::link_model& link,
                          growth_arena& arena) {
  arena.hits.clear();
  arena.link_cands.clear();
  const geom::vec2 pu = positions[u];
  const double max_power = link.max_power();
  grid.query_radius_into(pu, link.max_candidate_range(), u, arena.hits);
  for (geom::point_index v : arena.hits) {
    const geom::vec2 d = positions[v] - pu;
    const double dist = d.norm();
    const double req = link.required_power_at(dist, u, v, pu, positions[v]);
    if (req > max_power * (1.0 + 1e-12)) continue;  // never decodable
    arena.link_cands.push_back({v, dist, d.bearing(), req});
  }
  std::sort(arena.link_cands.begin(), arena.link_cands.end(),
            [](const link_candidate& a, const link_candidate& b) {
              return a.req_power < b.req_power || (a.req_power == b.req_power && a.id < b.id);
            });
}

/// Keeps the documented node_result invariant (neighbors sorted by
/// (distance, id)) after a growth pass that discovered them in
/// required-power order.
void sort_neighbors_by_distance(node_result& res) {
  std::sort(res.neighbors.begin(), res.neighbors.end(),
            [](const neighbor_record& a, const neighbor_record& b) {
              return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
            });
}

/// Figure 1 under per-link gains: a broadcast at power p is decoded by
/// exactly the candidates with req_power <= p (one-ulp tolerance, the
/// medium's decodability test).
node_result run_discrete_link(std::span<const link_candidate> cands,
                              const radio::link_model& link, const cbtc_params& params,
                              double p0, std::vector<double>& dirs) {
  node_result res;
  const double max_power = link.max_power();
  double p = p0;
  std::size_t next = 0;  // first candidate not yet discovered
  dirs.clear();

  while (p < max_power && geom::has_alpha_gap(dirs, params.alpha)) {
    p = std::min(p * params.increase_factor, max_power);
    res.level_powers.push_back(p);
    const auto level = static_cast<std::uint32_t>(res.level_powers.size() - 1);
    while (next < cands.size() && cands[next].req_power <= p * (1.0 + 1e-12)) {
      const link_candidate& c = cands[next];
      res.neighbors.push_back({c.id, c.distance, c.direction, level, p});
      if (c.distance > 0.0) dirs.push_back(c.direction);  // coincident: no bearing
      ++next;
    }
  }
  res.final_power = res.level_powers.empty() ? p0 : res.level_powers.back();
  res.boundary = geom::has_alpha_gap(dirs, params.alpha);
  sort_neighbors_by_distance(res);
  return res;
}

/// Continuous growth under per-link gains: admit candidates one at a
/// time in required-power order; stop at the first prefix with no
/// alpha-gap.
node_result run_continuous_link(std::span<const link_candidate> cands,
                                const radio::link_model& link, const cbtc_params& params,
                                std::vector<double>& dirs) {
  node_result res;
  dirs.clear();
  bool covered = false;
  for (const link_candidate& c : cands) {
    if (!geom::has_alpha_gap(dirs, params.alpha)) {
      covered = true;
      break;
    }
    const double p = std::min(c.req_power, link.max_power());
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
    res.level_powers.push_back(link.max_power());
    res.final_power = link.max_power();
    res.boundary = true;
  }
  sort_neighbors_by_distance(res);
  return res;
}

}  // namespace

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::power_model& power,
                     const cbtc_params& params) {
  if (params.alpha <= 0.0 || params.alpha >= geom::two_pi)
    throw std::invalid_argument("run_cbtc: alpha must be in (0, 2*pi)");
  if (params.increase_factor <= 1.0)
    throw std::invalid_argument("run_cbtc: increase_factor must be > 1");

  const double p0 =
      params.initial_power > 0.0 ? params.initial_power : power.required_power(power.max_range() / 16.0);

  cbtc_result result;
  result.params = params;
  if (positions.empty()) return result;

  // Growth is a pure per-node computation over the immutable grid, so
  // the parallel loop is deterministic by construction: node u's
  // outcome lands in slot u no matter which thread ran it.
  const geom::spatial_grid grid(positions, power.max_range());
  result.nodes.resize(positions.size());
  util::thread_pool pool(params.intra_threads);
  pool.parallel_for_chunks(positions.size(), growth_chunk, [&](std::size_t lo, std::size_t hi) {
    growth_arena arena;
    for (std::size_t u = lo; u < hi; ++u) {
      candidates_into(static_cast<node_id>(u), positions, grid, power.max_range(), arena);
      result.nodes[u] = params.mode == growth_mode::discrete
                            ? run_discrete(arena.cands, power, params, p0, arena.dirs)
                            : run_continuous(arena.cands, power, params, arena.dirs);
    }
  });
  return result;
}

cbtc_result run_cbtc(std::span<const geom::vec2> positions, const radio::link_model& link,
                     const cbtc_params& params) {
  // The isotropic fast path *is* the original algorithm — delegating
  // keeps its results (and its sorted-prefix discovery loop) bit for
  // bit.
  if (link.is_isotropic()) return run_cbtc(positions, link.power(), params);

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

  // The grid prunes by the longest feasible link; the per-link filter
  // inside link_candidates_of decides. Per-node growth stays pure, so
  // the parallel loop is deterministic exactly as in the isotropic
  // path.
  const geom::spatial_grid grid(positions, link.max_candidate_range());
  result.nodes.resize(positions.size());
  util::thread_pool pool(params.intra_threads);
  pool.parallel_for_chunks(positions.size(), growth_chunk, [&](std::size_t lo, std::size_t hi) {
    growth_arena arena;
    for (std::size_t u = lo; u < hi; ++u) {
      link_candidates_into(static_cast<node_id>(u), positions, grid, link, arena);
      result.nodes[u] = params.mode == growth_mode::discrete
                            ? run_discrete_link(arena.link_cands, link, params, p0, arena.dirs)
                            : run_continuous_link(arena.link_cands, link, params, arena.dirs);
    }
  });
  return result;
}

}  // namespace cbtc::algo
