#include "geom/arc_set.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "geom/angle.h"

namespace cbtc::geom {
namespace {

TEST(ArcSet, EmptyByDefault) {
  const arc_set s;
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.is_full_circle());
  EXPECT_DOUBLE_EQ(s.measure(), 0.0);
  EXPECT_FALSE(s.contains(1.0));
}

TEST(ArcSet, SingleArc) {
  const std::array<arc, 1> in{arc{1.0, 2.0}};
  const arc_set s = arc_set::from_arcs(in);
  EXPECT_NEAR(s.measure(), 1.0, 1e-12);
  EXPECT_TRUE(s.contains(1.5));
  EXPECT_TRUE(s.contains(1.0));
  EXPECT_TRUE(s.contains(2.0));
  EXPECT_FALSE(s.contains(0.5));
  EXPECT_FALSE(s.contains(3.0));
}

TEST(ArcSet, OverlappingArcsMerge) {
  const std::array<arc, 2> in{arc{1.0, 2.0}, arc{1.5, 3.0}};
  const arc_set s = arc_set::from_arcs(in);
  EXPECT_EQ(s.arcs().size(), 1u);
  EXPECT_NEAR(s.measure(), 2.0, 1e-12);
}

TEST(ArcSet, DisjointArcsStaySeparate) {
  const std::array<arc, 2> in{arc{0.5, 1.0}, arc{2.0, 3.0}};
  const arc_set s = arc_set::from_arcs(in);
  EXPECT_EQ(s.arcs().size(), 2u);
  EXPECT_NEAR(s.measure(), 1.5, 1e-12);
  EXPECT_TRUE(s.contains(0.75));
  EXPECT_FALSE(s.contains(1.5));
  EXPECT_TRUE(s.contains(2.5));
}

TEST(ArcSet, WrappingArc) {
  const std::array<arc, 1> in{arc{two_pi - 0.5, 0.5}};
  const arc_set s = arc_set::from_arcs(in);
  EXPECT_NEAR(s.measure(), 1.0, 1e-12);
  EXPECT_TRUE(s.contains(0.0));
  EXPECT_TRUE(s.contains(two_pi - 0.25));
  EXPECT_TRUE(s.contains(0.25));
  EXPECT_FALSE(s.contains(pi));
}

TEST(ArcSet, FullCircleFromCoveringArcs) {
  const std::array<arc, 3> in{arc{0.0, 2.5}, arc{2.0, 5.0}, arc{4.5, 0.5}};
  const arc_set s = arc_set::from_arcs(in);
  EXPECT_TRUE(s.is_full_circle());
  EXPECT_NEAR(s.measure(), two_pi, 1e-12);
  EXPECT_TRUE(s.contains(3.0));
}

TEST(ArcSet, CoverAlphaSemantics) {
  // cover_alpha({d}, alpha) is the closed arc of half-width alpha/2.
  const std::array<double, 1> dirs{pi};
  const arc_set s = arc_set::cover(dirs, pi / 2.0);
  EXPECT_TRUE(s.contains(pi));
  EXPECT_TRUE(s.contains(pi - pi / 4.0));
  EXPECT_TRUE(s.contains(pi + pi / 4.0));
  EXPECT_FALSE(s.contains(pi + pi / 3.0));
  EXPECT_NEAR(s.measure(), pi / 2.0, 1e-12);
}

TEST(ArcSet, CoverOfNoDirectionsIsEmpty) {
  const arc_set s = arc_set::cover({}, pi);
  EXPECT_TRUE(s.empty());
}

TEST(ArcSet, CoverBecomesFullWhenGapsClose) {
  // Three evenly spread directions with alpha = 2*pi/3 + margin tile
  // the circle; the paper's no-alpha-gap condition.
  std::vector<double> dirs{0.0, two_pi / 3.0, 2.0 * two_pi / 3.0};
  EXPECT_TRUE(arc_set::cover(dirs, two_pi / 3.0 + 0.01).is_full_circle());
  EXPECT_FALSE(arc_set::cover(dirs, two_pi / 3.0 - 0.01).is_full_circle());
}

TEST(ArcSet, FullCircleFactory) {
  const arc_set s = arc_set::full_circle();
  EXPECT_TRUE(s.is_full_circle());
  EXPECT_TRUE(s.contains(0.0));
  EXPECT_TRUE(s.contains(5.0));
}

TEST(ArcSet, ApproxEqualsTolerant) {
  const std::array<arc, 1> a{arc{1.0, 2.0}};
  const std::array<arc, 1> b{arc{1.0 + 1e-12, 2.0 - 1e-12}};
  EXPECT_TRUE(arc_set::from_arcs(a).approx_equals(arc_set::from_arcs(b), 1e-9));
  const std::array<arc, 1> c{arc{1.0, 2.1}};
  EXPECT_FALSE(arc_set::from_arcs(a).approx_equals(arc_set::from_arcs(c), 1e-9));
}

TEST(ArcSet, ApproxEqualsDifferentCardinality) {
  const std::array<arc, 1> a{arc{1.0, 2.0}};
  const std::array<arc, 2> b{arc{1.0, 1.4}, arc{1.6, 2.0}};
  EXPECT_FALSE(arc_set::from_arcs(a).approx_equals(arc_set::from_arcs(b)));
}

TEST(ArcSet, AlmostFullEqualsFull) {
  // A set missing only an eps-sliver compares equal to the full circle
  // under a tolerance larger than the sliver.
  const std::array<arc, 1> nearly{arc{1e-12, two_pi - 1e-12}};
  EXPECT_TRUE(arc_set::from_arcs(nearly).approx_equals(arc_set::full_circle(), 1e-9));
  const std::array<arc, 1> notfull{arc{0.5, two_pi - 0.5}};
  EXPECT_FALSE(arc_set::from_arcs(notfull).approx_equals(arc_set::full_circle(), 1e-9));
}

// Property: measure(cover(dirs, alpha)) <= min(n * alpha, 2*pi) and the
// cover always contains every direction.
TEST(ArcSet, CoverMeasureBoundsProperty) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> u(0.0, two_pi);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 8);
    std::vector<double> dirs;
    for (int i = 0; i < n; ++i) dirs.push_back(u(rng));
    const double alpha = u(rng) / 2.0 + 0.1;
    const arc_set cover = arc_set::cover(dirs, alpha);
    EXPECT_LE(cover.measure(), std::min(n * alpha, two_pi) + 1e-9);
    EXPECT_GE(cover.measure(), std::min(alpha, two_pi) - 1e-9);
    for (double d : dirs) EXPECT_TRUE(cover.contains(d));
  }
}

// Property: cover is monotone — adding directions never shrinks it.
TEST(ArcSet, CoverMonotoneProperty) {
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> u(0.0, two_pi);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> dirs;
    const double alpha = 1.0;
    double prev_measure = 0.0;
    for (int i = 0; i < 6; ++i) {
      dirs.push_back(u(rng));
      const double m = arc_set::cover(dirs, alpha).measure();
      EXPECT_GE(m, prev_measure - 1e-9);
      prev_measure = m;
    }
  }
}

TEST(Arc, LengthOfPlainAndWrappingArcs) {
  EXPECT_NEAR((arc{1.0, 2.5}).length(), 1.5, 1e-12);
  EXPECT_NEAR((arc{two_pi - 0.5, 0.5}).length(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ((arc{1.0, 1.0}).length(), 0.0);
}

/// Same full flag and the same canonical arcs, bit for bit.
bool same_set(const arc_set& a, const arc_set& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  if (a.is_full_circle() != b.is_full_circle() || a.arcs().size() != b.arcs().size()) return false;
  for (std::size_t i = 0; i < a.arcs().size(); ++i) {
    if (bits(a.arcs()[i].lo) != bits(b.arcs()[i].lo)) return false;
    if (bits(a.arcs()[i].hi) != bits(b.arcs()[i].hi)) return false;
  }
  return true;
}

TEST(CoverAccumulator, MatchesCoverAndFromArcsBitForBit) {
  // Every prefix of a random direction set, grown one direction at a
  // time, against cover() and from_arcs() of the same prefix built from
  // scratch. Sets hold duplicates, 0, the top of [0, 2*pi), directions
  // exactly alpha/2 from 0 (arcs that start or end on 0), and values
  // outside [0, 2*pi). One accumulator per alpha is reused via clear().
  const std::vector<double> alphas = {5.0 * pi / 6.0, 2.0 * pi / 3.0, pi / 2.0, 0.3,
                                      two_pi - 1e-9, two_pi, 7.0};
  std::vector<cover_accumulator> accs;
  for (const double alpha : alphas) accs.emplace_back(alpha);
  std::mt19937_64 rng(47);
  std::uniform_real_distribution<double> angle(0.0, two_pi);
  for (int round = 0; round < 20000; ++round) {
    const std::size_t which = rng() % alphas.size();
    const double alpha = alphas[which];
    cover_accumulator& acc = accs[which];
    acc.clear();
    std::vector<double> dirs;
    std::vector<arc> arcs;
    const std::size_t k = rng() % 16;
    for (std::size_t i = 0; i <= k; ++i) {
      if (i > 0) {
        double d = 0.0;
        switch (rng() % 8) {
          case 0: d = 0.0; break;
          case 1: d = std::nextafter(two_pi, 0.0); break;
          case 2: d = dirs.empty() ? angle(rng) : dirs[rng() % dirs.size()]; break;
          case 3: d = alpha / 2.0; break;
          case 4: d = angle(rng) - two_pi; break;
          default: d = angle(rng); break;
        }
        dirs.push_back(d);
        acc.add(d);
        const double c = norm_angle(d);
        arcs.push_back({norm_angle(c - alpha / 2.0), norm_angle(c + alpha / 2.0)});
      }
      const arc_set& got = acc.merged();
      ASSERT_TRUE(same_set(got, arc_set::cover(dirs, alpha)))
          << "round " << round << " prefix " << i << " alpha " << alpha;
      if (alpha < two_pi) {
        ASSERT_TRUE(same_set(got, arc_set::from_arcs(arcs))) << "round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace cbtc::geom
