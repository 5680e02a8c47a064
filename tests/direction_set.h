// The direction set D_u of one node's CBTC outcome, rebuilt from its
// neighbor records for the tests' cone checks. Growth and shrink-back
// keep their own sorted bearings and never materialize this set.
#pragma once

#include <vector>

#include "algo/oracle.h"

namespace cbtc::algo {

/// Bearings of all of n's neighbors. A neighbor at distance zero has no
/// meaningful bearing (the paper implicitly assumes distinct positions)
/// and contributes no directional coverage.
inline std::vector<double> directions(const node_result& n) {
  std::vector<double> dirs;
  for (const neighbor_record& r : n.neighbors) {
    if (r.distance > 0.0) dirs.push_back(r.direction);
  }
  return dirs;
}

}  // namespace cbtc::algo
