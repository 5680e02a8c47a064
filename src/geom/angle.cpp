#include "geom/angle.h"

#include <algorithm>
#include <cmath>

#include "geom/vec2.h"

namespace cbtc::geom {

double norm_angle(double theta) {
  // fmod is exact and returns its argument unchanged (-0.0 included)
  // when |theta| < 2*pi, so that range skips the call; NaN and +-inf
  // fail the test and still take fmod.
  double t = std::abs(theta) < two_pi ? theta : std::fmod(theta, two_pi);
  if (t < 0.0) t += two_pi;
  // fmod of a value just below a multiple of 2*pi can round to 2*pi.
  if (t >= two_pi) t -= two_pi;
  return t;
}

double angle_diff(double b, double a) {
  double d = norm_angle(b - a);
  if (d > pi) d -= two_pi;
  return d;
}

double angle_dist(double a, double b) { return std::abs(angle_diff(a, b)); }

bool angle_in_ccw_arc(double theta, double lo, double hi) {
  const double t = norm_angle(theta - lo);
  const double span = norm_angle(hi - lo);
  if (span == 0.0) return t == 0.0;
  return t <= span;
}

double max_sorted_gap(std::span<const double> sorted) {
  if (sorted.size() < 2) return two_pi;
  double max_gap = 0.0;
  for (std::size_t i = 0; i + 1 < sorted.size(); ++i) {
    max_gap = std::max(max_gap, sorted[i + 1] - sorted[i]);
  }
  // Wrap-around gap from the last direction back to the first.
  return std::max(max_gap, two_pi - sorted.back() + sorted.front());
}

bool has_sorted_alpha_gap(std::span<const double> sorted, double alpha) {
  // Strict test per Figure 1, with a tiny epsilon so a gap of exactly
  // alpha (common in symmetric layouts) is not misclassified by the
  // last-ulp noise of summed angles.
  return max_sorted_gap(sorted) > alpha + 1e-12;
}

bool has_alpha_gap(std::span<const double> directions, double alpha) {
  return has_sorted_alpha_gap(sorted_normalized(directions), alpha);
}

std::vector<double> sorted_normalized(std::span<const double> directions) {
  std::vector<double> sorted;
  sorted.reserve(directions.size());
  for (double d : directions) sorted.push_back(norm_angle(d));
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace cbtc::geom
