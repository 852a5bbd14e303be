// Unit and property tests for common/angles.hpp. Correct circular
// arithmetic is critical for yaw averaging in the pose computation step and
// for the convergence criterion (36° threshold).

#include "common/angles.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace tofmcl {
namespace {

TEST(Angles, DegRadConversions) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi), 180.0);
  EXPECT_NEAR(deg_to_rad(36.0), 0.6283185307, 1e-9);
}

TEST(Angles, WrapPiBasics) {
  EXPECT_NEAR(wrap_pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(-kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(3.0 * kPi), kPi, 1e-12);
}

TEST(Angles, WrapPiRangeProperty) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double w = wrap_pi(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    // Wrapped angle must be congruent mod 2π.
    EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
  }
}

// wrap_pi returns an in-range angle without calling std::remainder; the
// shortcut must equal the remainder path bit for bit, at the seam and at
// the values that take the slow path. A NaN result (NaN or ±∞ input)
// must stay NaN; its payload is the C library's.
TEST(Angles, WrapPiEarlyExitMatchesRemainder) {
  const auto by_remainder = [](double angle) {
    angle = std::remainder(angle, kTwoPi);
    if (angle <= -kPi) angle += kTwoPi;
    return angle;
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> angles = {
      kPi,
      -kPi,
      std::nextafter(kPi, 0.0),
      std::nextafter(-kPi, 0.0),
      std::nextafter(kPi, kInf),
      std::nextafter(-kPi, -kInf),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      kTwoPi,
      -kTwoPi,
      1e6,
      -1e6,
      std::numeric_limits<double>::quiet_NaN(),
      kInf,
      -kInf,
  };
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) angles.push_back(rng.uniform(-8.0, 8.0));
  for (const double a : angles) {
    SCOPED_TRACE(::testing::Message() << "angle=" << a);
    const double expected = by_remainder(a);
    const double got = wrap_pi(a);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got));
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(expected));
    }
  }
}

TEST(Angles, WrapTwoPiRangeProperty) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double w = wrap_two_pi(a);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kTwoPi);
    EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Angles, DiffAcrossSeam) {
  // 350° vs 10°: the short way round is 20°, not 340°.
  const double a = deg_to_rad(350.0);
  const double b = deg_to_rad(10.0);
  EXPECT_NEAR(angle_dist(a, b), deg_to_rad(20.0), 1e-12);
  EXPECT_NEAR(angle_diff(a, b), deg_to_rad(-20.0), 1e-12);
  EXPECT_NEAR(angle_diff(b, a), deg_to_rad(20.0), 1e-12);
}

TEST(Angles, DiffAntisymmetry) {
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-10, 10);
    const double b = rng.uniform(-10, 10);
    const double d1 = angle_diff(a, b);
    const double d2 = angle_diff(b, a);
    // Antisymmetric except at the ±π boundary where both map to +π.
    if (std::abs(std::abs(d1) - kPi) > 1e-9) {
      EXPECT_NEAR(d1, -d2, 1e-9);
    }
  }
}

TEST(Angles, CircularMeanSimple) {
  const std::array<double, 2> angles{deg_to_rad(350.0), deg_to_rad(10.0)};
  const double m = circular_mean(angles);
  EXPECT_NEAR(angle_dist(m, 0.0), 0.0, 1e-9);
}

TEST(Angles, CircularMeanWeighted) {
  const std::array<double, 2> angles{0.0, kPi / 2.0};
  const std::array<double, 2> w_left{1.0, 0.0};
  const std::array<double, 2> w_right{0.0, 1.0};
  EXPECT_NEAR(circular_mean(angles, w_left), 0.0, 1e-12);
  EXPECT_NEAR(circular_mean(angles, w_right), kPi / 2.0, 1e-12);
}

TEST(Angles, CircularMeanDegenerate) {
  // Antipodal mass cancels; convention is 0.
  const std::array<double, 2> angles{0.0, kPi};
  EXPECT_DOUBLE_EQ(circular_mean(angles), 0.0);
  EXPECT_DOUBLE_EQ(circular_mean(std::span<const double>{}), 0.0);
}

TEST(Angles, CircularMeanShiftEquivariance) {
  // mean(angles + c) == mean(angles) + c (mod 2π) — the property that makes
  // the estimator frame-independent.
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> angles(10);
    std::vector<double> weights(10);
    for (std::size_t i = 0; i < angles.size(); ++i) {
      angles[i] = rng.uniform(-0.8, 0.8);  // concentrated: mean well-defined
      weights[i] = rng.uniform(0.1, 1.0);
    }
    const double c = rng.uniform(-3.0, 3.0);
    const double base = circular_mean(angles, weights);
    for (auto& a : angles) a += c;
    const double shifted = circular_mean(angles, weights);
    EXPECT_NEAR(angle_dist(shifted, base + c), 0.0, 1e-9);
  }
}

TEST(Angles, SlerpEndpointsAndMidpoint) {
  const double a = deg_to_rad(350.0);
  const double b = deg_to_rad(10.0);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 0.0), a), 0.0, 1e-12);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 1.0), b), 0.0, 1e-12);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 0.5), 0.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace tofmcl
