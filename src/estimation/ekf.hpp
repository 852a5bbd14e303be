#pragma once
/// \file ekf.hpp
/// \brief Crazyflie-style extended Kalman filter for on-board odometry.
///
/// Mirrors the estimator structure of the Crazyflie firmware at the level
/// that matters for localization: gyro-driven yaw propagation, body-frame
/// velocity states corrected by optical flow, and dead-reckoned position.
/// Without absolute measurements the position/yaw drift unboundedly — the
/// output is precisely the odometry input u_t that the paper's MCL corrects
/// against the map.
///
/// State: x = [px, py, θ, vbx, vby]ᵀ (world position, yaw, body velocity).
/// The process noise, flow measurement noise and initial covariance are
/// constants in ekf.cpp.

#include "common/geometry.hpp"
#include "common/matrix.hpp"

namespace tofmcl::estimation {

class Ekf {
 public:
  static constexpr std::size_t kStateDim = 5;
  using StateVec = Vec<kStateDim>;
  using StateMat = Mat<kStateDim, kStateDim>;

  explicit Ekf(const Pose2& initial_pose = {});

  /// Propagate with the gyro yaw-rate measurement over dt seconds.
  void predict(double gyro_yaw_rate, double dt);

  /// Fuse a body-frame velocity measurement from the optical flow.
  void update_flow(Vec2 velocity_body);

  /// Current pose estimate (the odometry output).
  Pose2 pose() const {
    return {state_(0, 0), state_(1, 0), state_(2, 0)};
  }
  Vec2 velocity_body() const { return {state_(3, 0), state_(4, 0)}; }
  const StateMat& covariance() const { return covariance_; }

 private:
  StateVec state_{};
  StateMat covariance_{};
};

}  // namespace tofmcl::estimation
