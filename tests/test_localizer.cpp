// Tests for the Localizer facade: gating, frame handling, precision
// variants and the full simulated pipeline (global localization on a
// generated flight — the system-level behaviour of paper Fig 1).

#include "core/localizer.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <utility>

#include "common/angles.hpp"
#include "common/stats.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl::core {
namespace {

map::OccupancyGrid maze_grid() {
  sim::EvaluationEnvironment env;
  env.world = sim::drone_maze();
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  return sim::rasterize_environment(env, 0.05, 0.0);
}

LocalizerConfig base_config(Precision precision = Precision::kFp32,
                            std::size_t particles = 2048) {
  LocalizerConfig cfg;
  cfg.precision = precision;
  cfg.mcl.num_particles = particles;
  cfg.mcl.seed = 5;
  return cfg;
}

TEST(Localizer, ThrowsOnMapWithoutFreeSpace) {
  map::OccupancyGrid grid(10, 10, 0.05, {}, map::CellState::kOccupied);
  SerialExecutor exec;
  EXPECT_THROW(Localizer(grid, base_config(), exec), PreconditionError);
}

TEST(Localizer, MemoryAccountingMatchesPaper) {
  const auto grid = maze_grid();
  SerialExecutor exec;
  const std::size_t cells = grid.cell_count();

  Localizer fp32(grid, base_config(Precision::kFp32, 1024), exec);
  EXPECT_EQ(fp32.map_bytes(), cells * 5u);
  EXPECT_EQ(fp32.particle_bytes(), 1024u * 32u);

  Localizer fp32qm(grid, base_config(Precision::kFp32Qm, 1024), exec);
  EXPECT_EQ(fp32qm.map_bytes(), cells * 2u);
  EXPECT_EQ(fp32qm.particle_bytes(), 1024u * 32u);

  Localizer fp16qm(grid, base_config(Precision::kFp16Qm, 1024), exec);
  EXPECT_EQ(fp16qm.map_bytes(), cells * 2u);
  EXPECT_EQ(fp16qm.particle_bytes(), 1024u * 16u);
}

TEST(Localizer, GateBlocksUpdatesUntilMotion) {
  const auto grid = maze_grid();
  SerialExecutor exec;
  Localizer loc(grid, base_config(), exec);
  loc.start_global();

  const sensor::TofSensorConfig front;  // default id 0
  sensor::TofFrame frame;
  frame.mode = sensor::ZoneMode::k8x8;
  frame.sensor_id = 0;
  frame.zones.assign(64, {1.0f, sensor::ZoneStatus::kValid});

  // No odometry yet: nothing can run.
  EXPECT_FALSE(loc.on_frames({&frame, 1}));

  loc.on_odometry(Pose2{0.0, 0.0, 0.0});
  // Still below the 0.1 m / 0.1 rad gate.
  loc.on_odometry(Pose2{0.05, 0.0, 0.0});
  EXPECT_FALSE(loc.on_frames({&frame, 1}));
  EXPECT_EQ(loc.updates_run(), 0u);

  // Enough translation.
  loc.on_odometry(Pose2{0.12, 0.0, 0.0});
  EXPECT_TRUE(loc.on_frames({&frame, 1}));
  EXPECT_EQ(loc.updates_run(), 1u);

  // Gate resets after the update.
  EXPECT_FALSE(loc.on_frames({&frame, 1}));

  // Pure rotation passes the dθ gate.
  loc.on_odometry(Pose2{0.12, 0.0, 0.15});
  EXPECT_TRUE(loc.on_frames({&frame, 1}));
}

// Malformed frames must not abort the flight loop (one corrupt packet
// must not ground the drone): they are skipped and counted, while valid
// frames in the same batch still drive the correction.
TEST(Localizer, DropsMalformedFramesAndCountsThem) {
  const auto grid = maze_grid();
  SerialExecutor exec;
  Localizer loc(grid, base_config(), exec);
  loc.start_global();
  loc.on_odometry(Pose2{0.0, 0.0, 0.0});
  loc.on_odometry(Pose2{0.2, 0.0, 0.0});
  EXPECT_EQ(loc.dropped_frames(), 0u);

  sensor::TofFrame unknown_sensor;
  unknown_sensor.sensor_id = 9;  // not configured
  unknown_sensor.mode = sensor::ZoneMode::k8x8;
  unknown_sensor.zones.assign(64, {1.0f, sensor::ZoneStatus::kValid});

  sensor::TofFrame wrong_mode = unknown_sensor;
  wrong_mode.sensor_id = 0;  // configured, but as 8×8
  wrong_mode.mode = sensor::ZoneMode::k4x4;
  wrong_mode.zones.assign(16, {1.0f, sensor::ZoneStatus::kValid});

  sensor::TofFrame short_payload = unknown_sensor;
  short_payload.sensor_id = 0;
  short_payload.zones.resize(40);  // truncated packet: 40 of 64 zones

  sensor::TofFrame good;
  good.sensor_id = 0;
  good.mode = sensor::ZoneMode::k8x8;
  good.zones.assign(64, {1.0f, sensor::ZoneStatus::kValid});

  // A batch mixing malformed and valid frames: no throw, the bad ones are
  // counted, the good one still produces a correction.
  const std::array<sensor::TofFrame, 4> batch{unknown_sensor, wrong_mode,
                                              short_payload, good};
  EXPECT_TRUE(loc.on_frames(batch));
  EXPECT_EQ(loc.dropped_frames(), 3u);
  EXPECT_EQ(loc.updates_run(), 1u);

  // A batch of ONLY malformed frames must not consume the correction
  // gate: it returns false (motion still sampled), keeps counting, and
  // the next valid frame still gets its correction even though the drone
  // has not moved since the corrupt packet.
  loc.on_odometry(Pose2{0.4, 0.0, 0.0});
  const std::array<sensor::TofFrame, 1> bad_only{unknown_sensor};
  EXPECT_FALSE(loc.on_frames(bad_only));
  EXPECT_EQ(loc.dropped_frames(), 4u);
  EXPECT_EQ(loc.updates_run(), 1u);
  const std::array<sensor::TofFrame, 1> good_only{good};
  EXPECT_TRUE(loc.on_frames(good_only));
  EXPECT_EQ(loc.updates_run(), 2u);
}

// System-level test: run the full simulated pipeline and verify global
// localization converges to the true pose — the paper's headline behaviour
// — for every precision variant.
class LocalizerPipeline : public ::testing::TestWithParam<Precision> {};

TEST_P(LocalizerPipeline, ConvergesOnSimulatedFlight) {
  const map::World maze = sim::drone_maze();
  sim::EvaluationEnvironment env;
  env.world = maze;
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  const map::OccupancyGrid grid = sim::rasterize_environment(env, 0.05, 0.01);

  // Generate a flight through the maze.
  const auto plans = sim::standard_flight_plans();
  Rng rng(11);
  const sim::Sequence seq = sim::generate_sequence(
      maze, plans[1], sim::default_generator_config(), rng);

  SerialExecutor exec;
  LocalizerConfig cfg = base_config(GetParam(), 4096);
  Localizer loc(grid, cfg, exec);
  loc.start_global();

  // Replay: interleave odometry and ToF frames by timestamp, recording
  // the estimate error at every correction.
  std::size_t frame_idx = 0;
  std::vector<double> errors;
  for (std::size_t i = 0; i < seq.odometry.size(); ++i) {
    const double t = seq.odometry[i].t;
    loc.on_odometry(seq.odometry[i].pose);
    // Feed all frame pairs due by now.
    while (frame_idx + 1 < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= t) {
      const std::array<sensor::TofFrame, 2> pair{seq.frames[frame_idx],
                                                 seq.frames[frame_idx + 1]};
      if (loc.on_frames(pair) && loc.estimate().valid) {
        const Pose2 truth = sim::interpolate_pose(seq.ground_truth, t);
        errors.push_back(
            (loc.estimate().pose.position - truth.position).norm());
      }
      frame_idx += 2;
    }
  }
  EXPECT_GT(loc.updates_run(), 20u);
  ASSERT_GT(errors.size(), 40u);
  // Paper criteria: the filter converges (close to truth) and pose
  // tracking stays reliable (ATE ≤ 1 m) until the end. The very last
  // updates see gate-starved diffusion while the drone decelerates, so
  // accuracy is judged on the converged segment's median.
  const std::vector<double> tail(errors.end() - 30, errors.end());
  EXPECT_LT(median(tail), 0.3) << "precision=" << to_string(GetParam());
  EXPECT_LT(errors.back(), 1.0) << "precision=" << to_string(GetParam());
  const Pose2 truth_end = seq.ground_truth.back().pose;
  EXPECT_LT(angle_dist(loc.estimate().pose.yaw, truth_end.yaw),
            deg_to_rad(36.0));
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, LocalizerPipeline,
                         ::testing::Values(Precision::kFp32,
                                           Precision::kFp32Qm,
                                           Precision::kFp16Qm),
                         [](const auto& suite_info) {
                           return std::string(to_string(suite_info.param));
                         });

TEST(Localizer, TrackingInitStaysLocked) {
  const map::World maze = sim::drone_maze();
  sim::EvaluationEnvironment env;
  env.world = maze;
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  const map::OccupancyGrid grid = sim::rasterize_environment(env, 0.05, 0.01);

  const auto plans = sim::standard_flight_plans();
  Rng rng(12);
  const sim::Sequence seq = sim::generate_sequence(
      maze, plans[0], sim::default_generator_config(), rng);

  SerialExecutor exec;
  Localizer loc(grid, base_config(Precision::kFp32, 1024), exec);
  loc.on_odometry(seq.odometry.front().pose);
  loc.start_at(seq.ground_truth.front().pose, 0.2, 0.2);

  std::size_t frame_idx = 0;
  RunningStats errors;
  double final_err = 0.0;
  for (std::size_t i = 0; i < seq.odometry.size(); ++i) {
    loc.on_odometry(seq.odometry[i].pose);
    while (frame_idx + 1 < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= seq.odometry[i].t) {
      const std::array<sensor::TofFrame, 2> pair{seq.frames[frame_idx],
                                                 seq.frames[frame_idx + 1]};
      if (loc.on_frames(pair) && loc.estimate().valid) {
        const Pose2 truth =
            sim::interpolate_pose(seq.ground_truth, seq.odometry[i].t);
        final_err = (loc.estimate().pose.position - truth.position).norm();
        errors.add(final_err);
      }
      frame_idx += 2;
    }
  }
  // Paper's reliability criterion: the aggregate ATE stays within 1 m
  // (brief excursions are tolerated and recovered from).
  EXPECT_GT(loc.updates_run(), 10u);
  EXPECT_GT(errors.count(), 20u);
  EXPECT_LT(errors.mean(), 0.5);
  EXPECT_LT(final_err, 0.8);
}

// A context is the only way to a filter, so it must refuse resources that
// cannot serve its config instead of scoring with the wrong map or table.
TEST(ScoringContext, RejectsResourcesBuiltForAnotherConfig) {
  const auto grid = maze_grid();
  const LocalizerConfig cfg = base_config(Precision::kFp32Qm, 256);
  const Precision built = Precision::kFp32Qm;
  const auto maps = build_map_resources(grid, cfg.mcl, {&built, 1});

  LocalizerConfig other_rmax = cfg;
  other_rmax.mcl.rmax += 0.5;
  EXPECT_THROW(build_scoring_context(maps, other_rmax), PreconditionError);
  LocalizerConfig other_sigma = cfg;
  other_sigma.mcl.sigma_obs += 0.05;
  EXPECT_THROW(build_scoring_context(maps, other_sigma), PreconditionError);
  LocalizerConfig float_map = cfg;
  float_map.precision = Precision::kFp32;
  EXPECT_THROW(build_scoring_context(maps, float_map), PreconditionError);

  // The LUT covers hit + rand only, so the short-return terms may differ.
  LocalizerConfig mixture = cfg;
  mixture.mcl.z_short = 0.5;
  mixture.mcl.lambda_short = 2.0;
  SerialExecutor exec;
  Localizer loc(build_scoring_context(maps, mixture),
                {mixture.mcl.seed, mixture.mcl.num_particles}, exec);
  loc.start_global();
  loc.on_odometry(Pose2{0.0, 0.0, 0.0});
  loc.on_odometry(Pose2{0.2, 0.0, 0.0});
  sensor::TofFrame frame;
  frame.sensor_id = 0;
  frame.mode = sensor::ZoneMode::k8x8;
  frame.zones.assign(64, {1.0f, sensor::ZoneStatus::kValid});
  EXPECT_TRUE(loc.on_frames({&frame, 1}));
  EXPECT_EQ(loc.updates_run(), 1u);
}

/// Converts to any member type; only ever named in unevaluated operands.
struct AnyField {
  template <typename T>
  operator T() const;
};

/// Number of members of aggregate T: the longest AnyField list that T's
/// aggregate initialization accepts.
template <typename T, typename... Fields>
constexpr std::size_t member_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return member_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

// scoring_fingerprint keys the ScoringContext cache: a scoring field it
// misses would silently merge distinct configs onto one context. Every
// field but the SessionKnobs pair (seed, num_particles) must move it.
TEST(ScoringFingerprint, CoversEveryScoringField) {
  using Edit = void (*)(MclConfig&);
  const std::pair<const char*, Edit> scoring_fields[] = {
      {"sigma_odom_xy", [](MclConfig& m) { m.sigma_odom_xy += 0.25; }},
      {"sigma_odom_yaw", [](MclConfig& m) { m.sigma_odom_yaw += 0.25; }},
      {"scale_noise_with_motion",
       [](MclConfig& m) {
         m.scale_noise_with_motion = !m.scale_noise_with_motion;
       }},
      {"sigma_obs", [](MclConfig& m) { m.sigma_obs += 0.25; }},
      {"z_hit", [](MclConfig& m) { m.z_hit += 0.25; }},
      {"z_rand", [](MclConfig& m) { m.z_rand += 0.25; }},
      {"z_short", [](MclConfig& m) { m.z_short += 0.25; }},
      {"lambda_short", [](MclConfig& m) { m.lambda_short += 0.25; }},
      {"enable_novelty_gating",
       [](MclConfig& m) {
         m.enable_novelty_gating = !m.enable_novelty_gating;
       }},
      {"novelty_margin_m", [](MclConfig& m) { m.novelty_margin_m += 0.25; }},
      {"novelty_max_blind_updates",
       [](MclConfig& m) { m.novelty_max_blind_updates += 1; }},
      {"novelty_min_concentration",
       [](MclConfig& m) { m.novelty_min_concentration += 0.25; }},
      {"rmax", [](MclConfig& m) { m.rmax += 0.25; }},
      {"gate_dxy", [](MclConfig& m) { m.gate_dxy += 0.25; }},
      {"gate_dtheta", [](MclConfig& m) { m.gate_dtheta += 0.25; }},
      {"resample_ess_fraction",
       [](MclConfig& m) { m.resample_ess_fraction += 0.25; }},
      {"enable_injection",
       [](MclConfig& m) { m.enable_injection = !m.enable_injection; }},
      {"injection_alpha_slow",
       [](MclConfig& m) { m.injection_alpha_slow += 0.25; }},
      {"injection_alpha_fast",
       [](MclConfig& m) { m.injection_alpha_fast += 0.25; }},
      {"injection_max_fraction",
       [](MclConfig& m) { m.injection_max_fraction += 0.25; }},
      {"adaptive_particles",
       [](MclConfig& m) { m.adaptive_particles = !m.adaptive_particles; }},
      {"min_particles", [](MclConfig& m) { m.min_particles += 1; }},
      {"kld_epsilon", [](MclConfig& m) { m.kld_epsilon += 0.25; }},
      {"kld_z", [](MclConfig& m) { m.kld_z += 0.25; }},
      {"kld_bin_xy", [](MclConfig& m) { m.kld_bin_xy += 0.25; }},
      {"kld_bin_yaw", [](MclConfig& m) { m.kld_bin_yaw += 0.25; }},
      {"weight_precision",
       [](MclConfig& m) { m.weight_precision = WeightPrecision::kFp16; }},
      {"chunks", [](MclConfig& m) { m.chunks += 1; }},
  };
  const LocalizerConfig base;
  const std::string key = scoring_fingerprint(base);
  for (const auto& [name, edit] : scoring_fields) {
    LocalizerConfig changed = base;
    edit(changed.mcl);
    EXPECT_NE(scoring_fingerprint(changed), key) << name;
  }

  LocalizerConfig knobs = base;
  knobs.mcl.seed += 1;
  knobs.mcl.num_particles += 1;
  EXPECT_EQ(scoring_fingerprint(knobs), key);

  // 28 scoring fields + the two knobs. A new MclConfig field fails here
  // until it joins scoring_fingerprint and the table above.
  EXPECT_EQ(std::size(scoring_fields), 28u);
  EXPECT_EQ(member_count<MclConfig>(), 30u);
}

}  // namespace
}  // namespace tofmcl::core
