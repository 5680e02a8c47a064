// The seeded fields that the optimization and metric digest pins run
// on: one isotropic field per path-loss exponent, one shadowed and one
// behind two obstacle boxes (the non-isotropic links route op3 to the
// gain-aware pass).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/bbox.h"
#include "geom/random_points.h"
#include "geom/vec2.h"
#include "radio/power_model.h"
#include "radio/propagation.h"

namespace cbtc {

struct pinned_field {
  std::string name;
  radio::link_model link;
  std::vector<geom::vec2> positions;
};

/// A seeded uniform field of 150 nodes plus one node coincident with
/// its easternmost node: the pair has no bearing, zero length and zero
/// power, which every pass must treat as a special case.
inline std::vector<geom::vec2> field_with_coincident_pair(std::size_t n, double side,
                                                          std::uint64_t seed) {
  std::vector<geom::vec2> pts = geom::uniform_points(n, geom::bbox::rect(side, side), seed);
  pts.push_back(*std::max_element(pts.begin(), pts.end(), [](const geom::vec2& a,
                                                             const geom::vec2& b) {
    return a.x < b.x;
  }));
  return pts;
}

inline std::vector<pinned_field> pinned_fields() {
  const radio::power_model pm2(2.0, 500.0);
  return {
      {"isotropic_n2", pm2, field_with_coincident_pair(150, 1500.0, 1)},
      {"isotropic_n3", radio::power_model(3.0, 500.0), field_with_coincident_pair(150, 1500.0, 2)},
      {"shadowing",
       {pm2, radio::propagation_model::lognormal_shadowing(4.0, 8.0, 9)},
       field_with_coincident_pair(150, 1500.0, 3)},
      {"obstacles",
       {pm2, radio::propagation_model::obstacle_field({
                 {.box = {{300.0, 300.0}, {700.0, 600.0}}, .loss_db = 9.0},
                 {.box = {{800.0, 900.0}, {1200.0, 1200.0}}, .loss_db = 6.0},
             })},
       field_with_coincident_pair(150, 1500.0, 4)},
  };
}

}  // namespace cbtc
