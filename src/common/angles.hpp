#pragma once
/// \file angles.hpp
/// \brief Angle arithmetic on the circle group.
///
/// Yaw estimation requires care: averaging particle orientations
/// arithmetically fails across the ±π seam, so pose computation uses the
/// circular (vector) mean, and convergence checks use the wrapped
/// difference.

#include <cmath>
#include <numbers>
#include <span>

namespace tofmcl {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }
constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

/// Wrap an angle to (-π, π].
inline double wrap_pi(double angle) {
  // std::remainder(x, 2π) is exact and returns x itself for every x in
  // (-π, π] (a tie at +π rounds the quotient to the even 0), so an angle
  // already in range skips the call bit for bit.
  if (angle > -kPi && angle <= kPi) return angle;
  angle = std::remainder(angle, kTwoPi);
  // std::remainder yields [-π, π]; map the open end -π to +π.
  if (angle <= -kPi) angle += kTwoPi;
  return angle;
}

/// Wrap an angle to [0, 2π).
inline double wrap_two_pi(double angle) {
  angle = std::fmod(angle, kTwoPi);
  if (angle < 0.0) angle += kTwoPi;
  return angle;
}

/// Signed smallest difference a − b on the circle, in (-π, π].
inline double angle_diff(double a, double b) { return wrap_pi(a - b); }

/// Absolute angular distance between two headings, in [0, π].
inline double angle_dist(double a, double b) {
  return std::abs(angle_diff(a, b));
}

/// Weighted circular mean of headings. Returns 0 for empty input or when
/// the resultant vector (nearly) vanishes — antipodal mass has no
/// well-defined mean, so the standard degenerate-case convention applies.
/// The degeneracy test is relative to the total weight, which absorbs
/// floating-point residue from exactly-cancelling configurations.
inline double circular_mean(std::span<const double> angles,
                            std::span<const double> weights) {
  double sx = 0.0;
  double sy = 0.0;
  double total = 0.0;
  const std::size_t n = std::min(angles.size(), weights.size());
  for (std::size_t i = 0; i < n; ++i) {
    sx += weights[i] * std::cos(angles[i]);
    sy += weights[i] * std::sin(angles[i]);
    total += std::abs(weights[i]);
  }
  if (sx * sx + sy * sy <= 1e-24 * total * total) return 0.0;
  return std::atan2(sy, sx);
}

/// Unweighted circular mean.
inline double circular_mean(std::span<const double> angles) {
  double sx = 0.0;
  double sy = 0.0;
  for (const double a : angles) {
    sx += std::cos(a);
    sy += std::sin(a);
  }
  const auto total = static_cast<double>(angles.size());
  if (sx * sx + sy * sy <= 1e-24 * total * total) return 0.0;
  return std::atan2(sy, sx);
}

/// Linear interpolation on the circle along the shorter arc.
/// t = 0 returns a (wrapped), t = 1 returns b (wrapped).
inline double slerp_angle(double a, double b, double t) {
  return wrap_pi(a + t * angle_diff(b, a));
}

}  // namespace tofmcl
