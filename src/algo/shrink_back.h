// Optimization 1: the shrink-back operation (Section 3.1).
//
// A *boundary node* ends CBTC(alpha) still having an alpha-gap and
// therefore broadcasts at maximum power. Shrink-back lets it drop the
// highest discovery power levels whose removal does not change its cone
// coverage cover_alpha(D_u), and fall back to the power tag of the
// highest level kept. Theorem 3.1: the resulting graph G^s_alpha still
// preserves the connectivity of G_R for alpha <= 5*pi/6.
#pragma once

#include "algo/oracle.h"

namespace cbtc::algo {

struct shrink_back_options {
  /// The paper applies shrink-back to boundary nodes. For non-boundary
  /// nodes the operation is provably a no-op (their final level is the
  /// first with full coverage), so this flag only saves work.
  bool boundary_only{true};
  /// Tolerance for comparing cover_alpha arc sets.
  double cover_epsilon{1e-9};
};

/// Returns `in` with shrink-back applied per node: neighbors tagged
/// with a removed level disappear and final_power becomes the power tag
/// of the highest kept level. Trimmed nodes are edited in place and
/// every other node is left as it was, so a growth outcome moved in
/// comes back out without any node record being copied.
[[nodiscard]] cbtc_result apply_shrink_back(cbtc_result in, const shrink_back_options& opts = {});

}  // namespace cbtc::algo
