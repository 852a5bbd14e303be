#include "estimation/ekf.hpp"

#include <cmath>

#include "common/error.hpp"

namespace tofmcl::estimation {

namespace {
// Process noise densities (per √s).
constexpr double kSigmaVel = 0.25;  ///< Body velocity random walk (m/s/√s).
constexpr double kSigmaYaw = 0.01;  ///< Yaw noise on top of gyro (rad/√s).
constexpr double kSigmaPos = 0.0;   ///< Extra position noise (m/√s).
/// Measurement noise of one flow velocity axis (m/s).
constexpr double kFlowNoise = 0.03;
// Initial covariance diagonal.
constexpr double kInitPosVar = 1e-6;
constexpr double kInitYawVar = 1e-6;
constexpr double kInitVelVar = 0.01;
}  // namespace

Ekf::Ekf(const Pose2& initial_pose) {
  state_(0, 0) = initial_pose.x();
  state_(1, 0) = initial_pose.y();
  state_(2, 0) = initial_pose.yaw;
  covariance_ = StateMat::diagonal({kInitPosVar, kInitPosVar, kInitYawVar,
                                    kInitVelVar, kInitVelVar});
}

void Ekf::predict(double gyro_yaw_rate, double dt) {
  TOFMCL_EXPECTS(dt > 0.0, "prediction interval must be positive");
  const double theta = state_(2, 0);
  const double c = std::cos(theta);
  const double s = std::sin(theta);
  const double vbx = state_(3, 0);
  const double vby = state_(4, 0);

  // Nonlinear state propagation.
  state_(0, 0) += (vbx * c - vby * s) * dt;
  state_(1, 0) += (vbx * s + vby * c) * dt;
  state_(2, 0) += gyro_yaw_rate * dt;

  // Jacobian of the propagation w.r.t. the state.
  StateMat F = StateMat::identity();
  F(0, 2) = (-vbx * s - vby * c) * dt;
  F(0, 3) = c * dt;
  F(0, 4) = -s * dt;
  F(1, 2) = (vbx * c - vby * s) * dt;
  F(1, 3) = s * dt;
  F(1, 4) = c * dt;

  // Process noise: velocity random walk, yaw noise (gyro white noise is
  // part of this), optional extra position noise.
  const double qp = kSigmaPos * kSigmaPos * dt;
  const double qy = kSigmaYaw * kSigmaYaw * dt;
  const double qv = kSigmaVel * kSigmaVel * dt;
  const StateMat Q = StateMat::diagonal({qp, qp, qy, qv, qv});

  covariance_ = F * covariance_ * F.transposed() + Q;
  covariance_.symmetrize();
}

void Ekf::update_flow(Vec2 velocity_body) {
  // Measurement: z = [vbx, vby]ᵀ = H x with H selecting states 3, 4.
  Mat<2, kStateDim> H;
  H(0, 3) = 1.0;
  H(1, 4) = 1.0;

  Mat<2, 2> R;
  R(0, 0) = kFlowNoise * kFlowNoise;
  R(1, 1) = kFlowNoise * kFlowNoise;

  Vec<2> innovation;
  innovation(0, 0) = velocity_body.x - state_(3, 0);
  innovation(1, 0) = velocity_body.y - state_(4, 0);

  const Mat<2, 2> S = H * covariance_ * H.transposed() + R;
  const Mat<kStateDim, 2> K = covariance_ * H.transposed() * inverse(S);

  state_ = state_ + K * innovation;
  const StateMat I = StateMat::identity();
  covariance_ = (I - K * H) * covariance_;
  covariance_.symmetrize();
}

}  // namespace tofmcl::estimation
