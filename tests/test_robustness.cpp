// Failure injection and robustness: degraded sensors, odometry anomalies,
// the ESS-gated resampling extension and the 4×4 zone mode — the
// conditions a deployed system actually meets.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/localizer.hpp"
#include "eval/experiment.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl {
namespace {

map::OccupancyGrid maze_grid() {
  sim::EvaluationEnvironment env;
  env.world = sim::drone_maze();
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  return sim::rasterize_environment(env, 0.05, 0.0);
}

sensor::TofFrame frame_with_status(sensor::ZoneStatus status,
                                   int sensor_id = 0) {
  sensor::TofFrame f;
  f.sensor_id = sensor_id;
  f.mode = sensor::ZoneMode::k8x8;
  f.zones.assign(64, {1.0f, status});
  return f;
}

TEST(Robustness, AllInterferenceFramesDoNotCrash) {
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 256;
  core::Localizer loc(grid, cfg, exec);
  loc.on_odometry(Pose2{});
  loc.start_global();

  // Every zone flagged: extraction yields zero beams; the update must
  // still run (motion-only) and the estimate stay finite.
  Pose2 odom{};
  for (int i = 0; i < 20; ++i) {
    odom = odom.compose(Pose2{0.12, 0.0, 0.0});
    loc.on_odometry(odom);
    const sensor::TofFrame f =
        frame_with_status(sensor::ZoneStatus::kInterference);
    EXPECT_TRUE(loc.on_frames({&f, 1}));
  }
  EXPECT_TRUE(loc.estimate().valid);
  EXPECT_TRUE(std::isfinite(loc.estimate().pose.x()));
}

TEST(Robustness, AllOutOfRangeFramesDoNotCrash) {
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 128;
  core::Localizer loc(grid, cfg, exec);
  loc.on_odometry(Pose2{});
  loc.start_global();
  Pose2 odom{};
  for (int i = 0; i < 10; ++i) {
    odom = odom.compose(Pose2{0.15, 0.0, 0.1});
    loc.on_odometry(odom);
    const sensor::TofFrame f =
        frame_with_status(sensor::ZoneStatus::kOutOfRange);
    loc.on_frames({&f, 1});
  }
  EXPECT_TRUE(std::isfinite(loc.estimate().pose.x()));
}

TEST(Robustness, OdometryJumpSurvives) {
  // A teleporting odometry step (EKF reset/glitch) must not produce NaNs
  // or particle escape — the motion update absorbs it as a huge delta.
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 512;
  core::Localizer loc(grid, cfg, exec);
  loc.on_odometry(Pose2{});
  loc.start_global();
  const sensor::TofFrame f = frame_with_status(sensor::ZoneStatus::kValid);
  loc.on_odometry(Pose2{0.2, 0.0, 0.0});
  loc.on_frames({&f, 1});
  // The glitch: 100 m jump.
  loc.on_odometry(Pose2{100.0, 50.0, 2.0});
  loc.on_frames({&f, 1});
  EXPECT_TRUE(std::isfinite(loc.estimate().pose.x()));
  EXPECT_TRUE(std::isfinite(loc.estimate().pose.yaw));
}

TEST(Robustness, NonFiniteOdometryIsIgnored) {
  // One NaN odometry sample used to turn every particle into NaN while
  // the weights stayed finite, so the next corrections reported valid
  // poses with x = NaN. The sample must be dropped instead.
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 512;
  core::Localizer loc(grid, cfg, exec);
  Pose2 odom{};
  loc.on_odometry(odom);
  loc.start_global();
  const sensor::TofFrame f = frame_with_status(sensor::ZoneStatus::kValid);
  const auto advance = [&] {
    odom = odom.compose(Pose2{0.12, 0.0, 0.0});
    loc.on_odometry(odom);
    return loc.on_frames({&f, 1});
  };
  ASSERT_TRUE(advance());
  // The glitch, consumed by a frame batch before the next good sample.
  loc.on_odometry(Pose2{std::numeric_limits<double>::quiet_NaN(), 0.0, 0.0});
  loc.on_frames({&f, 1});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(advance());
    const core::PoseEstimate& est = loc.estimate();
    EXPECT_TRUE(est.valid) << "correction " << i;
    EXPECT_TRUE(std::isfinite(est.pose.x()) && std::isfinite(est.pose.y()) &&
                std::isfinite(est.pose.yaw))
        << "correction " << i;
  }
}

TEST(Robustness, NonFiniteParticleIsNeverAValidPose) {
  // Finite weights do not make a finite mean: a NaN particle must turn
  // the estimate invalid, not into a valid pose with x = NaN.
  const auto grid = maze_grid();
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  core::SerialExecutor exec;
  core::MclConfig cfg;
  cfg.num_particles = 64;
  core::ParticleFilter<core::Fp32QmTraits> pf(qmap, cfg, exec);
  pf.init_gaussian({1.5, 0.6, 0.0}, 0.1, 0.1);
  ASSERT_TRUE(pf.compute_pose().valid);
  pf.mutable_soa().x[0] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(pf.compute_pose().valid);
}

TEST(Robustness, HeavySensorDegradationStillLocalizes) {
  // 30 % interference, doubled noise: localization should still converge
  // on a full flight (the mixture floor and redundancy carry it).
  const map::World maze = sim::drone_maze();
  sim::EvaluationEnvironment env;
  env.world = maze;
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  const map::OccupancyGrid grid = sim::rasterize_environment(env, 0.05, 0.01);

  auto gen = sim::default_generator_config();
  gen.front_tof.p_interference = 0.3;
  gen.rear_tof.p_interference = 0.3;
  gen.front_tof.sigma_base_m = 0.02;
  gen.rear_tof.sigma_base_m = 0.02;
  gen.front_tof.sigma_proportional = 0.04;
  gen.rear_tof.sigma_proportional = 0.04;
  const auto plans = sim::standard_flight_plans();
  Rng rng(5);
  const sim::Sequence seq = sim::generate_sequence(maze, plans[3], gen, rng);

  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 4096;
  cfg.mcl.seed = 9;
  core::SerialExecutor exec;
  const auto errors = eval::replay_sequence(seq, grid, cfg, true, exec);
  const eval::RunMetrics metrics = eval::evaluate_run(errors);
  EXPECT_TRUE(metrics.converged);
  EXPECT_LT(metrics.ate_m, 0.6);
}

TEST(Robustness, EssGatedResamplingWorks) {
  // With the ESS extension the filter should localize comparably while
  // actually skipping resampling rounds (weights visibly non-uniform).
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = 1024;
  cfg.seed = 4;
  cfg.resample_ess_fraction = 0.5;
  core::ParticleFilter<core::Fp32QmTraits> pf(qmap, cfg, exec);
  pf.init_gaussian({1.5, 0.6, 0.0}, 0.2, 0.2);

  std::array<sensor::Beam, 8> beams;
  for (int i = 0; i < 8; ++i) {
    const double az = -0.3 + 0.085 * i;
    beams[static_cast<std::size_t>(i)] = {
        az, 0.6f,
        Vec2f{static_cast<float>(0.6 * std::cos(az)),
              static_cast<float>(0.6 * std::sin(az))}};
  }
  bool saw_nonuniform_after_resample_phase = false;
  for (int round = 0; round < 20; ++round) {
    pf.motion_update(Pose2{0.02, 0.0, 0.0});
    pf.observation_update(beams);
    pf.resample();
    // If the ESS gate skipped the draw, weights stay non-uniform.
    const auto& weights = pf.soa().weight;
    const float w0 = static_cast<float>(weights[0]);
    for (const auto weight : weights) {
      if (std::abs(static_cast<float>(weight) - w0) > 1e-6f) {
        saw_nonuniform_after_resample_phase = true;
        break;
      }
    }
  }
  EXPECT_TRUE(saw_nonuniform_after_resample_phase);
  const auto est = pf.compute_pose();
  ASSERT_TRUE(est.valid);
  EXPECT_TRUE(std::isfinite(est.pose.x()));
}

TEST(Robustness, FourByFourZoneModePipeline) {
  // The 4×4 @ 60 Hz sensor mode (the VL53L5CX's other operating point):
  // fewer beams per frame but more frames — the pipeline must converge.
  const map::World maze = sim::drone_maze();
  sim::EvaluationEnvironment env;
  env.world = maze;
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  const map::OccupancyGrid grid = sim::rasterize_environment(env, 0.05, 0.01);

  auto gen = sim::default_generator_config();
  gen.front_tof.mode = sensor::ZoneMode::k4x4;
  gen.rear_tof.mode = sensor::ZoneMode::k4x4;
  gen.tof_rate_hz = 60.0;
  const auto plans = sim::standard_flight_plans();
  Rng rng(6);
  const sim::Sequence seq = sim::generate_sequence(maze, plans[1], gen, rng);

  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 4096;
  cfg.mcl.seed = 8;
  // The localizer's sensor table must match the 4×4 mode.
  cfg.sensors = {gen.front_tof, gen.rear_tof};
  core::SerialExecutor exec;
  const auto errors = eval::replay_sequence(seq, grid, cfg, true, exec);
  const eval::RunMetrics metrics = eval::evaluate_run(errors);
  EXPECT_TRUE(metrics.converged);
  EXPECT_LT(metrics.ate_m, 0.6);
}

TEST(Robustness, TinyParticleCountsDegradeGracefully) {
  // 8 particles cannot localize globally, but nothing may crash and the
  // estimate must stay finite.
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::LocalizerConfig cfg;
  cfg.mcl.num_particles = 8;
  core::Localizer loc(grid, cfg, exec);
  loc.on_odometry(Pose2{});
  loc.start_global();
  Pose2 odom{};
  const sensor::TofFrame f = frame_with_status(sensor::ZoneStatus::kValid);
  for (int i = 0; i < 30; ++i) {
    odom = odom.compose(Pose2{0.11, 0.0, 0.05});
    loc.on_odometry(odom);
    loc.on_frames({&f, 1});
  }
  EXPECT_TRUE(std::isfinite(loc.estimate().pose.x()));
}

}  // namespace
}  // namespace tofmcl
