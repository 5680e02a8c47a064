// Axis-aligned bounding boxes (deployment regions).
#pragma once

#include <algorithm>

#include "geom/vec2.h"

namespace cbtc::geom {

/// A closed axis-aligned rectangle [min.x, max.x] x [min.y, max.y].
struct bbox {
  vec2 min;
  vec2 max;

  /// The paper's deployment region: a w x h rectangle anchored at the origin.
  [[nodiscard]] static constexpr bbox rect(double w, double h) { return {{0.0, 0.0}, {w, h}}; }

  [[nodiscard]] constexpr double width() const { return max.x - min.x; }
  [[nodiscard]] constexpr double height() const { return max.y - min.y; }
  [[nodiscard]] constexpr double area() const { return width() * height(); }

  [[nodiscard]] constexpr bool contains(const vec2& p) const {
    return p.x >= min.x && p.x <= max.x && p.y >= min.y && p.y <= max.y;
  }

  /// Closest point of the box to `p`.
  [[nodiscard]] vec2 clamp(const vec2& p) const {
    return {std::clamp(p.x, min.x, max.x), std::clamp(p.y, min.y, max.y)};
  }

  [[nodiscard]] constexpr bool operator==(const bbox&) const = default;
};

}  // namespace cbtc::geom
