#include "algo/shrink_back.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "geom/arc_set.h"

namespace cbtc::algo {

namespace {

/// Buffers reused across the nodes of one pass.
struct shrink_scratch {
  explicit shrink_scratch(double alpha) : full(alpha), prefix(alpha) {}

  std::vector<std::pair<std::uint32_t, double>> by_level;  // (level, bearing)
  geom::cover_accumulator full;
  geom::cover_accumulator prefix;
};

/// Shrinks `node` in place; a node whose kept level is already its
/// last is left untouched.
void shrink_node(node_result& node, const shrink_back_options& opts, shrink_scratch& s) {
  if (node.neighbors.empty() || node.level_powers.size() <= 1) return;

  // dir_i = directions discovered at level <= i; find the minimum i with
  // cover_alpha(dir_i) == cover_alpha(dir_k). Neighbors are sorted by
  // distance, not by level, so order their bearings by level first.
  // A coincident neighbor has no bearing and covers nothing.
  s.by_level.clear();
  for (const neighbor_record& r : node.neighbors) {
    if (r.distance > 0.0) s.by_level.emplace_back(r.level, r.direction);
  }
  std::sort(s.by_level.begin(), s.by_level.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  s.full.clear();
  for (const auto& [level, dir] : s.by_level) s.full.add(dir);
  const geom::arc_set& full_cover = s.full.merged();

  const std::size_t num_levels = node.level_powers.size();
  std::size_t keep_level = num_levels - 1;
  s.prefix.clear();
  auto next = s.by_level.cbegin();
  for (std::size_t i = 0; i < num_levels; ++i) {
    for (; next != s.by_level.cend() && next->first == i; ++next) s.prefix.add(next->second);
    if (s.prefix.merged().approx_equals(full_cover, opts.cover_epsilon)) {
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
  shrink_scratch scratch(in.params.alpha);
  for (node_result& n : in.nodes) {
    if (!opts.boundary_only || n.boundary) shrink_node(n, opts, scratch);
  }
  return in;
}

}  // namespace cbtc::algo
