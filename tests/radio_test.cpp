#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "geom/angle.h"
#include "radio/channel.h"
#include "radio/direction.h"
#include "radio/power_model.h"

namespace cbtc::radio {
namespace {

// --------------------------------------------------------- power_model

TEST(PowerModel, RequiredPowerIsDistancePower) {
  const power_model pm(2.0, 500.0);
  EXPECT_DOUBLE_EQ(pm.required_power(10.0), 100.0);
  EXPECT_DOUBLE_EQ(pm.required_power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pm.max_power(), 500.0 * 500.0);
  EXPECT_DOUBLE_EQ(pm.max_range(), 500.0);
}

TEST(PowerModel, HigherExponentCostsMore) {
  const power_model quad(4.0, 500.0);
  EXPECT_DOUBLE_EQ(quad.required_power(10.0), 10000.0);
  EXPECT_GT(quad.max_power(), power_model(2.0, 500.0).max_power());
}

TEST(PowerModel, RangeInvertsRequiredPower) {
  for (double n : {1.0, 2.0, 3.0, 4.0}) {
    const power_model pm(n, 500.0);
    for (double d : {1.0, 17.0, 250.0, 500.0}) {
      EXPECT_NEAR(pm.range(pm.required_power(d)), d, 1e-9) << "n=" << n << " d=" << d;
    }
  }
}

TEST(PowerModel, RangeOfNonPositivePowerIsZero) {
  const power_model pm(2.0, 500.0);
  EXPECT_DOUBLE_EQ(pm.range(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pm.range(-5.0), 0.0);
}

TEST(PowerModel, ReachesBoundary) {
  const power_model pm(2.0, 500.0);
  EXPECT_TRUE(pm.reaches(pm.required_power(100.0), 100.0));  // exact
  EXPECT_TRUE(pm.reaches(pm.required_power(100.0), 99.0));
  EXPECT_FALSE(pm.reaches(pm.required_power(100.0), 101.0));
}

TEST(PowerModel, RxPowerDecaysWithDistance) {
  const power_model pm(2.0, 500.0);
  const double p = 10000.0;
  EXPECT_GT(pm.rx_power(p, 10.0), pm.rx_power(p, 20.0));
  // At the exact reachable distance, rx power hits the unit threshold.
  EXPECT_NEAR(pm.rx_power(pm.required_power(123.0), 123.0), 1.0, 1e-12);
}

TEST(PowerModel, EstimateRequiredPowerRoundTrip) {
  // The Section 2 assumption: from (tx power, rx power) the receiver
  // recovers p(d) exactly in our model.
  const power_model pm(2.0, 500.0);
  const double d = 321.0;
  const double tx = pm.max_power();
  const double rx = pm.rx_power(tx, d);
  EXPECT_NEAR(pm.estimate_required_power(tx, rx), pm.required_power(d), 1e-6);
}

TEST(PowerModel, InvalidArguments) {
  EXPECT_THROW(power_model(0.5, 500.0), std::invalid_argument);
  EXPECT_THROW(power_model(2.0, 0.0), std::invalid_argument);
  // The maximum power R^n must be a positive finite double.
  EXPECT_THROW(power_model(2.0, 1e200), std::invalid_argument);
  EXPECT_THROW(power_model(400.0, 500.0), std::invalid_argument);
  EXPECT_THROW(power_model(2.0, 1e-200), std::invalid_argument);
  EXPECT_THROW(power_model(2.0, std::numeric_limits<double>::infinity()), std::invalid_argument);
  EXPECT_THROW(power_model(2.0, std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_TRUE(std::isfinite(power_model(2.0, 1e150).max_power()));
  const power_model pm(2.0, 500.0);
  EXPECT_THROW((void)pm.estimate_required_power(100.0, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------- direction

TEST(DirectionEstimator, ExactWhenNoiseless) {
  direction_estimator de;
  const geom::vec2 rx{0.0, 0.0};
  EXPECT_NEAR(de.measure(rx, {1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(de.measure(rx, {0.0, 5.0}), geom::pi / 2.0, 1e-12);
  EXPECT_NEAR(de.measure(rx, {-2.0, 0.0}), geom::pi, 1e-12);
}

TEST(DirectionEstimator, NoiseBounded) {
  direction_estimator de(0.1, 42);
  const geom::vec2 rx{0.0, 0.0};
  const geom::vec2 tx{100.0, 0.0};
  for (int i = 0; i < 500; ++i) {
    const double m = de.measure(rx, tx);
    EXPECT_LE(geom::angle_dist(m, 0.0), 0.1 + 1e-12);
  }
}

TEST(DirectionEstimator, NoisyMeasurementsNormalized) {
  direction_estimator de(0.5, 1);
  const geom::vec2 rx{0.0, 0.0};
  for (int i = 0; i < 200; ++i) {
    const double m = de.measure(rx, {1.0, -0.001});  // bearing near 2*pi
    EXPECT_GE(m, 0.0);
    EXPECT_LT(m, geom::two_pi);
  }
}

// ------------------------------------------------------------ channel

TEST(Channel, ReliableByDefault) {
  channel ch;
  for (int i = 0; i < 100; ++i) {
    const auto d = ch.sample_deliveries(100.0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_DOUBLE_EQ(d[0], 0.01);  // base delay only
  }
}

TEST(Channel, DropAllWhenProbabilityOne) {
  channel ch({.drop_prob = 1.0}, 3);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(ch.sample_deliveries(10.0).empty());
}

TEST(Channel, DropRateApproximatesProbability) {
  channel ch({.drop_prob = 0.3}, 5);
  int dropped = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (ch.sample_deliveries(10.0).empty()) ++dropped;
  }
  EXPECT_NEAR(dropped / static_cast<double>(trials), 0.3, 0.03);
}

TEST(Channel, DuplicationProducesTwoCopies) {
  channel ch({.dup_prob = 1.0}, 7);
  const auto d = ch.sample_deliveries(10.0);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Channel, PropagationAndJitter) {
  channel ch({.base_delay = 1.0, .delay_per_unit = 0.5, .jitter_max = 0.25}, 11);
  for (int i = 0; i < 200; ++i) {
    const auto d = ch.sample_deliveries(10.0);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_GE(d[0], 6.0);          // 1 + 0.5*10
    EXPECT_LE(d[0], 6.25 + 1e-12); // + jitter
  }
  EXPECT_DOUBLE_EQ(ch.max_delay(10.0), 6.25);
}

TEST(Channel, InvalidParamsThrow) {
  EXPECT_THROW(channel({.drop_prob = -0.1}), std::invalid_argument);
  EXPECT_THROW(channel({.drop_prob = 1.1}), std::invalid_argument);
  EXPECT_THROW(channel({.dup_prob = 2.0}), std::invalid_argument);
  EXPECT_THROW(channel({.base_delay = -1.0}), std::invalid_argument);
}

TEST(Channel, DeterministicPerSeed) {
  channel a({.drop_prob = 0.5, .jitter_max = 1.0}, 99);
  channel b({.drop_prob = 0.5, .jitter_max = 1.0}, 99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.sample_deliveries(5.0), b.sample_deliveries(5.0));
  }
}

}  // namespace
}  // namespace cbtc::radio
