// Tests for the Crazyflie-style odometry EKF and the proprioceptive sensor
// models feeding it: noise statistics, covariance behaviour, and the
// bounded-drift property that makes the generated odometry realistic.

#include "estimation/ekf.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "estimation/sensor_models.hpp"

namespace tofmcl::estimation {
namespace {

TEST(Gyro, BiasAndNoiseStatistics) {
  GyroConfig cfg;
  cfg.noise_stddev_rad_s = 0.01;
  cfg.initial_bias_rad_s = 0.0;  // no bias for this test
  cfg.bias_walk_rad_s2 = 0.0;
  Rng rng(1);
  Gyro gyro(cfg, rng);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(gyro.measure(0.5, 0.01, rng));
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.001);
  EXPECT_NEAR(stats.stddev(), 0.01, 0.001);
}

TEST(Gyro, ConstantBiasShiftsMean) {
  GyroConfig cfg;
  cfg.noise_stddev_rad_s = 0.001;
  cfg.initial_bias_rad_s = 0.05;
  cfg.bias_walk_rad_s2 = 0.0;
  Rng rng(2);
  Gyro gyro(cfg, rng);
  const double bias = gyro.bias();
  EXPECT_NE(bias, 0.0);
  RunningStats stats;
  for (int i = 0; i < 5000; ++i) stats.add(gyro.measure(0.0, 0.01, rng));
  EXPECT_NEAR(stats.mean(), bias, 0.001);
}

TEST(FlowSensor, NoiseAndScale) {
  FlowConfig cfg;
  cfg.noise_stddev_m_s = 0.01;
  cfg.scale_error_stddev = 0.0;
  cfg.p_dropout = 0.0;
  Rng rng(3);
  FlowSensor flow(cfg, rng);
  EXPECT_DOUBLE_EQ(flow.scale(), 1.0);
  RunningStats sx;
  for (int i = 0; i < 10000; ++i) {
    const FlowMeasurement m = flow.measure({0.3, -0.2}, rng);
    ASSERT_TRUE(m.valid);
    sx.add(m.velocity_body.x);
  }
  EXPECT_NEAR(sx.mean(), 0.3, 0.001);
  EXPECT_NEAR(sx.stddev(), 0.01, 0.001);
}

TEST(FlowSensor, DropoutRate) {
  FlowConfig cfg;
  cfg.p_dropout = 0.3;
  Rng rng(4);
  FlowSensor flow(cfg, rng);
  int dropped = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (!flow.measure({0.1, 0.0}, rng).valid) ++dropped;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / n, 0.3, 0.02);
}

TEST(Ekf, InitialState) {
  const Ekf ekf(Pose2{1.0, 2.0, 0.5});
  EXPECT_DOUBLE_EQ(ekf.pose().x(), 1.0);
  EXPECT_DOUBLE_EQ(ekf.pose().y(), 2.0);
  EXPECT_DOUBLE_EQ(ekf.pose().yaw, 0.5);
  EXPECT_DOUBLE_EQ(ekf.velocity_body().x, 0.0);
}

TEST(Ekf, PredictIntegratesYaw) {
  Ekf ekf;
  for (int i = 0; i < 100; ++i) ekf.predict(0.2, 0.01);
  EXPECT_NEAR(ekf.pose().yaw, 0.2, 1e-9);
}

TEST(Ekf, PredictRejectsBadDt) {
  Ekf ekf;
  EXPECT_THROW(ekf.predict(0.0, 0.0), PreconditionError);
  EXPECT_THROW(ekf.predict(0.0, -0.1), PreconditionError);
}

TEST(Ekf, FlowUpdatePullsVelocity) {
  Ekf ekf;
  for (int i = 0; i < 50; ++i) {
    ekf.predict(0.0, 0.01);
    ekf.update_flow({0.5, 0.0});
  }
  EXPECT_NEAR(ekf.velocity_body().x, 0.5, 0.01);
  EXPECT_NEAR(ekf.velocity_body().y, 0.0, 0.01);
}

TEST(Ekf, DeadReckonsStraightLine) {
  Ekf ekf;
  const double dt = 0.01;
  for (int i = 0; i < 500; ++i) {
    ekf.predict(0.0, dt);
    ekf.update_flow({0.4, 0.0});
  }
  // ~5 s at converging-to-0.4 m/s heading +x: position ≈ 2 m (slightly
  // less because velocity starts at 0).
  EXPECT_NEAR(ekf.pose().x(), 2.0, 0.1);
  EXPECT_NEAR(ekf.pose().y(), 0.0, 0.05);
}

TEST(Ekf, CovarianceGrowsWithoutUpdates) {
  Ekf ekf;
  const double v0 = ekf.covariance()(0, 0);
  for (int i = 0; i < 100; ++i) ekf.predict(0.0, 0.01);
  // Position variance inflates through the velocity uncertainty.
  EXPECT_GT(ekf.covariance()(3, 3), 0.01 - 1e-9);
  for (int i = 0; i < 400; ++i) ekf.predict(0.0, 0.01);
  EXPECT_GT(ekf.covariance()(0, 0), v0);
}

TEST(Ekf, FlowUpdateShrinksVelocityCovariance) {
  Ekf ekf;
  for (int i = 0; i < 100; ++i) ekf.predict(0.0, 0.01);
  const double before = ekf.covariance()(3, 3);
  ekf.update_flow({0.0, 0.0});
  EXPECT_LT(ekf.covariance()(3, 3), before);
}

TEST(Ekf, CovarianceStaysSymmetric) {
  Ekf ekf;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    ekf.predict(rng.gaussian(0.0, 0.3), 0.01);
    if (i % 2 == 0) {
      ekf.update_flow({rng.gaussian(0.2, 0.05), rng.gaussian(0.0, 0.05)});
    }
  }
  const auto& P = ekf.covariance();
  for (std::size_t r = 0; r < Ekf::kStateDim; ++r) {
    for (std::size_t c = 0; c < Ekf::kStateDim; ++c) {
      EXPECT_DOUBLE_EQ(P(r, c), P(c, r));
    }
    EXPECT_GE(P(r, r), 0.0);
  }
}

TEST(Ekf, ClosedLoopDriftIsRealistic) {
  // Full pipeline: drive a square path, feed noisy gyro/flow, check the
  // dead-reckoned estimate drifts — but by a bounded amount (a few percent
  // of distance travelled), which is the regime MCL is designed to fix.
  Rng rng(6);
  GyroConfig gyro_cfg;  // defaults
  FlowConfig flow_cfg;
  Gyro gyro(gyro_cfg, rng);
  FlowSensor flow(flow_cfg, rng);
  Ekf ekf;

  const double dt = 0.01;
  double true_yaw = 0.0;
  Vec2 true_pos{};
  double distance = 0.0;
  for (int leg = 0; leg < 4; ++leg) {
    // Straight 2 m at 0.4 m/s.
    for (int i = 0; i < 500; ++i) {
      const Vec2 v_body{0.4, 0.0};
      const Vec2 v_world = v_body.rotated(true_yaw);
      true_pos += v_world * dt;
      distance += 0.4 * dt;
      ekf.predict(gyro.measure(0.0, dt, rng), dt);
      const FlowMeasurement m = flow.measure(v_body, rng);
      if (m.valid) ekf.update_flow(m.velocity_body);
    }
    // Turn 90° in 1 s.
    for (int i = 0; i < 100; ++i) {
      const double w = kPi / 2.0;
      true_yaw += w * dt;
      ekf.predict(gyro.measure(w, dt, rng), dt);
      const FlowMeasurement m = flow.measure({0.0, 0.0}, rng);
      if (m.valid) ekf.update_flow(m.velocity_body);
    }
  }
  const double pos_error = (ekf.pose().position - true_pos).norm();
  EXPECT_GT(pos_error, 0.005);        // it must drift (it is odometry)
  EXPECT_LT(pos_error, 0.15 * distance);  // but stay within ~15 % of path
  EXPECT_LT(angle_dist(ekf.pose().yaw, true_yaw), 0.5);
}

}  // namespace
}  // namespace tofmcl::estimation
