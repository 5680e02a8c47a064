#include "algo/shrink_back.h"

#include <vector>

#include "geom/arc_set.h"

namespace cbtc::algo {

namespace {

/// Shrinks `node` in place; a node whose kept level is already its
/// last is left untouched.
void shrink_node(node_result& node, double alpha, const shrink_back_options& opts) {
  if (node.neighbors.empty() || node.level_powers.size() <= 1) return;

  const std::vector<double> all_dirs = node.directions();
  const geom::arc_set full_cover = geom::arc_set::cover(all_dirs, alpha);

  // dir_i = directions discovered at level <= i; find the minimum i with
  // cover_alpha(dir_i) == cover_alpha(dir_k). Neighbors are not sorted
  // by level (they are sorted by distance), so accumulate per level.
  const std::size_t num_levels = node.level_powers.size();
  std::vector<std::vector<double>> dirs_at_level(num_levels);
  for (const neighbor_record& r : node.neighbors) {
    if (r.distance > 0.0) dirs_at_level[r.level].push_back(r.direction);  // coincident: no bearing
  }

  std::vector<double> prefix_dirs;
  std::size_t keep_level = num_levels - 1;
  for (std::size_t i = 0; i < num_levels; ++i) {
    prefix_dirs.insert(prefix_dirs.end(), dirs_at_level[i].begin(), dirs_at_level[i].end());
    const geom::arc_set cover_i = geom::arc_set::cover(prefix_dirs, alpha);
    if (cover_i.approx_equals(full_cover, opts.cover_epsilon)) {
      keep_level = i;
      break;
    }
  }
  if (keep_level == num_levels - 1) return;

  node.level_powers.resize(keep_level + 1);
  node.final_power = node.level_powers.back();
  std::erase_if(node.neighbors,
                [keep_level](const neighbor_record& r) { return r.level > keep_level; });
}

}  // namespace

cbtc_result apply_shrink_back(cbtc_result in, const shrink_back_options& opts) {
  for (node_result& n : in.nodes) {
    if (!opts.boundary_only || n.boundary) shrink_node(n, in.params.alpha, opts);
  }
  return in;
}

}  // namespace cbtc::algo
