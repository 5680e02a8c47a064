#include "geom/angle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

namespace cbtc::geom {
namespace {

constexpr double alpha_probe_5pi6 = 5.0 * pi / 6.0;
constexpr double alpha_probe_2pi3 = 2.0 * pi / 3.0;

/// The largest circular gap of directions that need not be sorted or
/// normalized, the way has_alpha_gap measures it.
double max_circular_gap(std::span<const double> directions) {
  return max_sorted_gap(sorted_normalized(directions));
}

TEST(NormAngle, AlreadyNormalized) {
  EXPECT_DOUBLE_EQ(norm_angle(0.0), 0.0);
  EXPECT_DOUBLE_EQ(norm_angle(1.5), 1.5);
}

TEST(NormAngle, WrapsNegative) {
  EXPECT_NEAR(norm_angle(-pi / 2.0), 3.0 * pi / 2.0, 1e-12);
  EXPECT_NEAR(norm_angle(-two_pi - 0.5), two_pi - 0.5, 1e-12);
}

TEST(NormAngle, WrapsLarge) {
  EXPECT_NEAR(norm_angle(two_pi + 0.25), 0.25, 1e-12);
  EXPECT_NEAR(norm_angle(5.0 * two_pi + 1.0), 1.0, 1e-9);
}

TEST(NormAngle, ResultAlwaysInRange) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(-100.0, 100.0);
  for (int i = 0; i < 1000; ++i) {
    const double t = norm_angle(u(rng));
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, two_pi);
  }
}

TEST(AngleDiff, SignedShortestRotation) {
  EXPECT_NEAR(angle_diff(0.5, 0.25), 0.25, 1e-12);
  EXPECT_NEAR(angle_diff(0.25, 0.5), -0.25, 1e-12);
  // Across the wrap point.
  EXPECT_NEAR(angle_diff(0.1, two_pi - 0.1), 0.2, 1e-12);
  EXPECT_NEAR(angle_diff(two_pi - 0.1, 0.1), -0.2, 1e-12);
}

TEST(AngleDist, SymmetricAndBounded) {
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(-10.0, 10.0);
  for (int i = 0; i < 1000; ++i) {
    const double a = u(rng);
    const double b = u(rng);
    EXPECT_DOUBLE_EQ(angle_dist(a, b), angle_dist(b, a));
    EXPECT_LE(angle_dist(a, b), pi + 1e-12);
    EXPECT_GE(angle_dist(a, b), 0.0);
  }
}

TEST(AngleInCcwArc, BasicMembership) {
  EXPECT_TRUE(angle_in_ccw_arc(0.5, 0.0, 1.0));
  EXPECT_FALSE(angle_in_ccw_arc(1.5, 0.0, 1.0));
  EXPECT_TRUE(angle_in_ccw_arc(0.0, 0.0, 1.0));  // endpoints included
  EXPECT_TRUE(angle_in_ccw_arc(1.0, 0.0, 1.0));
}

TEST(AngleInCcwArc, WrappingArc) {
  // Arc from 3/2*pi counterclockwise to pi/2 passes through 0.
  EXPECT_TRUE(angle_in_ccw_arc(0.0, 3.0 * pi / 2.0, pi / 2.0));
  EXPECT_TRUE(angle_in_ccw_arc(two_pi - 0.1, 3.0 * pi / 2.0, pi / 2.0));
  EXPECT_FALSE(angle_in_ccw_arc(pi, 3.0 * pi / 2.0, pi / 2.0));
}

TEST(MaxCircularGap, EmptyAndSingleton) {
  EXPECT_DOUBLE_EQ(max_circular_gap({}), two_pi);
  const std::array<double, 1> one{1.0};
  EXPECT_DOUBLE_EQ(max_circular_gap(one), two_pi);
}

TEST(MaxCircularGap, TwoOpposite) {
  const std::array<double, 2> dirs{0.0, pi};
  EXPECT_NEAR(max_circular_gap(dirs), pi, 1e-12);
}

TEST(MaxCircularGap, WrapAroundGapDetected) {
  // Directions huddled near 0: the wrap gap is nearly 2*pi.
  const std::array<double, 3> dirs{0.1, 0.2, 0.3};
  EXPECT_NEAR(max_circular_gap(dirs), two_pi - 0.2, 1e-12);
}

TEST(MaxCircularGap, UnsortedAndUnnormalizedInput) {
  const std::array<double, 3> dirs{pi + two_pi, -pi / 2.0, 0.0};
  // Normalized: {pi, 3*pi/2, 0} -> gaps pi, pi/2, pi/2.
  EXPECT_NEAR(max_circular_gap(dirs), pi, 1e-12);
}

TEST(MaxCircularGap, EvenSpreadHasEqualGaps) {
  std::vector<double> dirs;
  const int k = 8;
  for (int i = 0; i < k; ++i) dirs.push_back(two_pi * i / k);
  EXPECT_NEAR(max_circular_gap(dirs), two_pi / k, 1e-12);
}

TEST(HasAlphaGap, StrictComparison) {
  // Figure 1's gap test is strict: a gap of exactly alpha does not
  // count as an uncovered cone.
  std::vector<double> dirs;
  for (int i = 0; i < 3; ++i) dirs.push_back(two_pi * i / 3);
  const double gap = two_pi / 3;
  EXPECT_FALSE(has_alpha_gap(dirs, gap));
  EXPECT_TRUE(has_alpha_gap(dirs, gap - 1e-9));
}

TEST(HasAlphaGap, EmptyAlwaysGapped) {
  EXPECT_TRUE(has_alpha_gap({}, 5.0 * pi / 6.0));
  EXPECT_TRUE(has_alpha_gap({}, two_pi - 1e-9));
}

TEST(SortedNormalized, SortsAndNormalizes) {
  const std::array<double, 3> dirs{-0.5, two_pi + 0.25, 1.0};
  const std::vector<double> s = sorted_normalized(dirs);
  ASSERT_EQ(s.size(), 3u);
  EXPECT_NEAR(s[0], 0.25, 1e-12);
  EXPECT_NEAR(s[1], 1.0, 1e-12);
  EXPECT_NEAR(s[2], two_pi - 0.5, 1e-12);
}

// Property: the max circular gap of n >= 2 random directions equals
// 2*pi minus the sum of the other gaps (gaps partition the circle).
TEST(MaxCircularGap, GapsPartitionCircleProperty) {
  std::mt19937_64 rng(23);
  std::uniform_real_distribution<double> u(0.0, two_pi);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> dirs;
    const int n = 2 + static_cast<int>(rng() % 20);
    for (int i = 0; i < n; ++i) dirs.push_back(u(rng));
    std::vector<double> s = sorted_normalized(dirs);
    double total = 0.0;
    for (std::size_t i = 0; i + 1 < s.size(); ++i) total += s[i + 1] - s[i];
    total += two_pi - s.back() + s.front();
    EXPECT_NEAR(total, two_pi, 1e-9);
    EXPECT_LE(max_circular_gap(dirs), total + 1e-9);
  }
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// norm_angle without its fast path: fmod, then the two corrections.
double norm_angle_by_fmod(double theta) {
  double t = std::fmod(theta, two_pi);
  if (t < 0.0) t += two_pi;
  if (t >= two_pi) t -= two_pi;
  return t;
}

TEST(NormAngle, FastPathMatchesFmodBitForBit) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> probes = {0.0,    -0.0,    pi,   -pi, 1e300, -1e300,
                                inf,    -inf,    std::numeric_limits<double>::quiet_NaN(),
                                1e-320, -1e-320, 3 * pi, -3 * pi};
  for (const double edge : {two_pi, -two_pi, 2 * two_pi, -2 * two_pi}) {
    probes.push_back(edge);
    probes.push_back(std::nextafter(edge, 0.0));
    probes.push_back(std::nextafter(edge, 2 * edge));
  }
  std::mt19937_64 rng(41);
  std::uniform_real_distribution<double> wide(-4 * two_pi, 4 * two_pi);
  for (int i = 0; i < 100000; ++i) probes.push_back(wide(rng));
  for (const double x : probes) {
    EXPECT_TRUE(same_bits(norm_angle(x), norm_angle_by_fmod(x))) << std::hexfloat << x;
  }
}

TEST(SortedGap, MatchesHasAlphaGapOnRandomDirectionSets) {
  // Directions kept sorted by upper_bound insertion, as growth keeps
  // them, against the sorting wrappers, on sets with duplicates and
  // both ends of [0, 2*pi).
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> angle(0.0, two_pi);
  const double top = std::nextafter(two_pi, 0.0);
  for (int round = 0; round < 100000; ++round) {
    const std::size_t k = rng() % 12;
    std::vector<double> dirs;
    std::vector<double> sorted;
    for (std::size_t i = 0; i < k; ++i) {
      double d = 0.0;
      switch (rng() % 6) {
        case 0: d = 0.0; break;
        case 1: d = top; break;
        case 2: d = dirs.empty() ? angle(rng) : dirs[rng() % dirs.size()]; break;
        default: d = angle(rng); break;
      }
      dirs.push_back(d);
      sorted.insert(std::upper_bound(sorted.begin(), sorted.end(), d), d);
    }
    const double gap = max_circular_gap(dirs);
    ASSERT_TRUE(same_bits(max_sorted_gap(sorted), gap)) << "round " << round;
    for (const double alpha : {alpha_probe_5pi6, alpha_probe_2pi3, gap, gap - 1e-12,
                               std::nextafter(gap - 1e-12, 0.0), angle(rng)}) {
      ASSERT_EQ(has_sorted_alpha_gap(sorted, alpha), has_alpha_gap(dirs, alpha))
          << "round " << round << " alpha " << alpha;
    }
  }
}

}  // namespace
}  // namespace cbtc::geom
