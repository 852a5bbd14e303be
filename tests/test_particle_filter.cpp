// Unit tests for the ParticleFilter phases: initialization, motion
// sampling statistics, observation weighting, systematic resampling
// (including serial/parallel bit-exactness) and pose computation.

#include "core/particle_filter.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/stats.hpp"
#include "map/rasterize.hpp"

namespace tofmcl::core {
namespace {

using sensor::Beam;

// 4×4 m closed box with a wall at x=2: a simple, unambiguous-enough world.
map::OccupancyGrid test_grid() {
  map::World w;
  w.add_rectangle({{0.0, 0.0}, {4.0, 4.0}});
  w.add_segment({2.0, 0.0}, {2.0, 2.5});
  map::RasterizeOptions opt;
  opt.resolution = 0.05;
  return map::rasterize(w, opt);
}

MclConfig small_config(std::size_t n = 512) {
  MclConfig cfg;
  cfg.num_particles = n;
  cfg.seed = 77;
  return cfg;
}

Beam beam_at(double azimuth, double range) {
  Beam b;
  b.azimuth_body = azimuth;
  b.range_m = static_cast<float>(range);
  b.endpoint_body = Vec2f{static_cast<float>(range * std::cos(azimuth)),
                          static_cast<float>(range * std::sin(azimuth))};
  return b;
}

TEST(ParticleFilter, RejectsBadConfig) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config();
  cfg.num_particles = 0;
  EXPECT_THROW((ParticleFilter<Fp32Traits>(dm, cfg, exec)),
               PreconditionError);
  cfg = small_config();
  cfg.chunks = 0;
  EXPECT_THROW((ParticleFilter<Fp32Traits>(dm, cfg, exec)),
               PreconditionError);
  cfg = small_config();
  cfg.sigma_obs = 0.0;
  EXPECT_THROW((ParticleFilter<Fp32Traits>(dm, cfg, exec)),
               PreconditionError);
}

TEST(ParticleFilter, UniformInitCoversSupport) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(4096), exec);
  const auto support = grid.free_cell_centers();
  pf.init_uniform(support, 0.025);

  RunningStats xs;
  RunningStats yaws;
  const auto& soa = pf.soa();
  for (std::size_t i = 0; i < soa.size(); ++i) {
    xs.add(static_cast<double>(soa.x[i]));
    yaws.add(static_cast<double>(soa.yaw[i]));
    EXPECT_FLOAT_EQ(static_cast<float>(soa.weight[i]), 1.0f);
  }
  // Spread over the whole box.
  EXPECT_LT(xs.min(), 0.5);
  EXPECT_GT(xs.max(), 3.5);
  // Yaw roughly uniform: mean ~0, spread large.
  EXPECT_NEAR(yaws.mean(), 0.0, 0.15);
  EXPECT_GT(yaws.stddev(), 1.5);
}

TEST(ParticleFilter, GaussianInitClusters) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(4096), exec);
  pf.init_gaussian({1.0, 2.0, 0.5}, 0.1, 0.05);
  RunningStats xs;
  RunningStats ys;
  const auto& soa = pf.soa();
  for (std::size_t i = 0; i < soa.size(); ++i) {
    xs.add(static_cast<double>(soa.x[i]));
    ys.add(static_cast<double>(soa.y[i]));
  }
  EXPECT_NEAR(xs.mean(), 1.0, 0.02);
  EXPECT_NEAR(ys.mean(), 2.0, 0.02);
  EXPECT_NEAR(xs.stddev(), 0.1, 0.02);
}

TEST(ParticleFilter, MotionUpdateStatistics) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(8192);
  cfg.sigma_odom_xy = 0.05;
  cfg.sigma_odom_yaw = 0.02;
  cfg.scale_noise_with_motion = false;  // test the raw σ_odom mechanics
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({2.0, 2.0, 0.0}, 0.0, 0.0);  // all identical, facing +x
  pf.motion_update(Pose2{0.3, 0.0, 0.1});

  RunningStats xs;
  RunningStats ys;
  RunningStats yaws;
  const auto& soa = pf.soa();
  for (std::size_t i = 0; i < soa.size(); ++i) {
    xs.add(static_cast<double>(soa.x[i]));
    ys.add(static_cast<double>(soa.y[i]));
    yaws.add(static_cast<double>(soa.yaw[i]));
  }
  // Mean moves by the commanded delta; spread matches σ_odom.
  EXPECT_NEAR(xs.mean(), 2.3, 0.005);
  EXPECT_NEAR(ys.mean(), 2.0, 0.005);
  EXPECT_NEAR(yaws.mean(), 0.1, 0.002);
  EXPECT_NEAR(xs.stddev(), 0.05, 0.005);
  EXPECT_NEAR(ys.stddev(), 0.05, 0.005);
  EXPECT_NEAR(yaws.stddev(), 0.02, 0.002);
}

TEST(ParticleFilter, MotionDeltaIsBodyFrame) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(1024);
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({2.0, 2.0, kPi / 2.0}, 0.0, 0.0);  // facing +y
  pf.motion_update(Pose2{0.5, 0.0, 0.0});             // forward in body frame
  EXPECT_NEAR(static_cast<float>(pf.soa().x[0]), 2.0f, 1e-5);
  EXPECT_NEAR(static_cast<float>(pf.soa().y[0]), 2.5f, 1e-5);
}

TEST(ParticleFilter, ObservationWeightsFavorTruePose) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(2);
  cfg.sigma_odom_xy = 0.0;
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  // Particle 0 at the "true" pose: 1 m from the wall at x=2, facing it.
  // Particle 1 displaced 0.5 m backwards.
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
  // Construct beams as if measured from (1.0, 1.0) facing +x: wall at 1 m.
  const std::array<Beam, 1> beams{beam_at(0.0, 1.0)};
  pf.observation_update(beams);
  const float w_true = static_cast<float>(pf.soa().weight[0]);

  ParticleFilter<Fp32Traits> pf2(dm, cfg, exec);
  pf2.init_gaussian({0.5, 1.0, 0.0}, 0.0, 0.0);
  pf2.observation_update(beams);
  const float w_wrong = static_cast<float>(pf2.soa().weight[0]);

  EXPECT_GT(w_true, w_wrong);
  EXPECT_GT(w_true, 0.9f);  // endpoint lands on the wall → EDT ≈ 0
}

TEST(ParticleFilter, EmptyBeamSetLeavesWeights) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(64), exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.1);
  pf.observation_update({});
  for (const auto weight : pf.soa().weight) {
    EXPECT_FLOAT_EQ(static_cast<float>(weight), 1.0f);
  }
}

TEST(ParticleFilter, ResampleConcentratesOnHighWeight) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(1024);
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  const auto support = grid.free_cell_centers();
  pf.init_uniform(support, 0.025);
  // Weight particles by proximity to (1, 1): observation from that pose.
  const std::array<Beam, 2> beams{beam_at(0.0, 1.0), beam_at(kPi, 1.0)};
  pf.observation_update(beams);
  pf.resample();
  // All weights reset to 1 after resampling.
  for (const auto weight : pf.soa().weight) {
    EXPECT_FLOAT_EQ(static_cast<float>(weight), 1.0f);
  }
}

TEST(ParticleFilter, ResampleIsUnbiased) {
  // Property of systematic resampling: a group holding fraction W of the
  // total weight receives N·W copies up to a small discretization error.
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(1000);
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
  // Contiguous groups (interleaved patterns alias with the regular arrow
  // spacing — an inherent property of systematic resampling, not a bug):
  // group A (first 500, x=0.5) weight 1; group B (last 500, x=2.5) weight 3.
  auto& particles = pf.mutable_soa();
  for (std::size_t i = 0; i < particles.size(); ++i) {
    particles.x[i] = (i < 500) ? 0.5f : 2.5f;
    particles.weight[i] = (i < 500) ? 1.0f : 3.0f;
  }
  pf.resample();
  int group_b = 0;
  for (const auto x : pf.soa().x) {
    if (static_cast<float>(x) > 1.5f) ++group_b;
  }
  // Expected 750 of 1000; for a contiguous weight block systematic
  // resampling assigns N·W copies within ±1.
  EXPECT_NEAR(group_b, 750, 1);
}

TEST(ParticleFilter, ResampleMatchesWeightsAcrossChunkCounts) {
  // The wheel outcome distribution must not depend on the chunk count:
  // compare group shares for 1, 3 and 8 chunks.
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  for (const std::size_t chunks : {1u, 3u, 8u}) {
    MclConfig cfg = small_config(1200);
    cfg.chunks = chunks;
    ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
    pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
    auto& particles = pf.mutable_soa();
    // Contiguous block: first 400 particles have weight 2 (group A).
    for (std::size_t i = 0; i < particles.size(); ++i) {
      particles.x[i] = (i < 400) ? 0.5f : 2.5f;
      particles.weight[i] = (i < 400) ? 2.0f : 1.0f;
    }
    pf.resample();
    int group_a = 0;
    for (const auto x : pf.soa().x) {
      if (static_cast<float>(x) < 1.5f) ++group_a;
    }
    // Group A mass: 400·2 / (400·2 + 800·1) = 0.5 → 600 copies.
    EXPECT_NEAR(group_a, 600, 1) << "chunks=" << chunks;
  }
}

TEST(ParticleFilter, ResampleBitExactAcrossExecutors) {
  // With the same chunk count, the serial executor and the thread pool
  // must produce identical particle sets — the partial-sum wheel is
  // deterministic.
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  const std::array<Beam, 4> beams{beam_at(0.0, 0.8), beam_at(kPi / 8, 1.2),
                                  beam_at(-kPi / 8, 0.6), beam_at(kPi, 1.0)};

  MclConfig cfg = small_config(777);  // non-divisible by 8 on purpose
  cfg.chunks = 8;

  SerialExecutor serial;
  ParticleFilter<Fp32Traits> pf_serial(dm, cfg, serial);
  pf_serial.init_uniform(support, 0.025);

  ThreadPool pool(3);
  ThreadPoolExecutor threaded(pool);
  ParticleFilter<Fp32Traits> pf_threaded(dm, cfg, threaded);
  pf_threaded.init_uniform(support, 0.025);

  for (int round = 0; round < 5; ++round) {
    pf_serial.update(Pose2{0.1, 0.02, 0.05}, beams);
    pf_threaded.update(Pose2{0.1, 0.02, 0.05}, beams);
  }
  const auto& a = pf_serial.soa();
  const auto& b = pf_threaded.soa();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i])) << i;
    EXPECT_EQ(static_cast<float>(a.y[i]), static_cast<float>(b.y[i])) << i;
    EXPECT_EQ(static_cast<float>(a.yaw[i]), static_cast<float>(b.yaw[i]))
        << i;
  }
  const auto ea = pf_serial.compute_pose();
  const auto eb = pf_threaded.compute_pose();
  EXPECT_EQ(ea.pose.x(), eb.pose.x());
  EXPECT_EQ(ea.pose.yaw, eb.pose.yaw);
}

TEST(ParticleFilter, ResampleHandlesDegenerateWeights) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(64), exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.1);
  // Zero every weight through an impossible product is not reachable via
  // the observation model (factors > 0); emulate by many updates with far
  // beams — weights shrink but stay positive, resample must not crash and
  // must keep the particle count.
  const std::array<Beam, 8> beams{beam_at(0, 3.9f), beam_at(0.3, 3.9f),
                                  beam_at(0.6, 3.9f), beam_at(0.9, 3.9f),
                                  beam_at(1.2, 3.9f), beam_at(1.5, 3.9f),
                                  beam_at(1.8, 3.9f), beam_at(2.1, 3.9f)};
  for (int i = 0; i < 50; ++i) {
    pf.observation_update(beams);
    pf.resample();
  }
  EXPECT_EQ(pf.soa().size(), 64u);
  for (const auto x : pf.soa().x) {
    EXPECT_TRUE(std::isfinite(static_cast<float>(x)));
  }
}

TEST(ParticleFilter, PoseComputationWeightedMean) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(4096);
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({1.5, 2.5, 0.7}, 0.05, 0.02);
  const PoseEstimate est = pf.compute_pose();
  ASSERT_TRUE(est.valid);
  EXPECT_NEAR(est.pose.x(), 1.5, 0.01);
  EXPECT_NEAR(est.pose.y(), 2.5, 0.01);
  EXPECT_NEAR(est.pose.yaw, 0.7, 0.01);
  EXPECT_NEAR(est.position_stddev, 0.05 * std::numbers::sqrt2, 0.02);
  EXPECT_GT(est.yaw_concentration, 0.99);
}

TEST(ParticleFilter, PoseYawAcrossSeam) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(4096), exec);
  pf.init_gaussian({2.0, 2.0, kPi}, 0.01, 0.05);  // around ±π
  const PoseEstimate est = pf.compute_pose();
  EXPECT_NEAR(angle_dist(est.pose.yaw, kPi), 0.0, 0.01);
}

TEST(ParticleFilter, DeterministicForSeed) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  const std::array<Beam, 2> beams{beam_at(0.0, 1.0), beam_at(kPi, 2.0)};

  auto run = [&]() {
    ParticleFilter<Fp32Traits> pf(dm, small_config(256), exec);
    pf.init_uniform(support, 0.025);
    for (int i = 0; i < 3; ++i) pf.update(Pose2{0.1, 0.0, 0.0}, beams);
    return pf.compute_pose();
  };
  const PoseEstimate a = run();
  const PoseEstimate b = run();
  EXPECT_EQ(a.pose.x(), b.pose.x());
  EXPECT_EQ(a.pose.y(), b.pose.y());
  EXPECT_EQ(a.pose.yaw, b.pose.yaw);
}

TEST(ParticleFilter, QuantizedMapVariantMatchesFloatClosely) {
  // fp32 vs fp32qm on identical input: estimates should agree to within
  // the quantization-induced tolerance (paper: no significant loss).
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const map::QuantizedDistanceMap qm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  const std::array<Beam, 4> beams{beam_at(0.0, 1.0), beam_at(0.4, 1.3),
                                  beam_at(-0.4, 0.9), beam_at(kPi, 1.8)};

  ParticleFilter<Fp32Traits> pf32(dm, small_config(2048), exec);
  ParticleFilter<Fp32QmTraits> pfqm(qm, small_config(2048), exec);
  pf32.init_uniform(support, 0.025);
  pfqm.init_uniform(support, 0.025);
  for (int i = 0; i < 10; ++i) {
    pf32.update(Pose2{0.12, 0.0, 0.03}, beams);
    pfqm.update(Pose2{0.12, 0.0, 0.03}, beams);
  }
  const PoseEstimate e32 = pf32.compute_pose();
  const PoseEstimate eqm = pfqm.compute_pose();
  ASSERT_TRUE(e32.valid);
  ASSERT_TRUE(eqm.valid);
  // Identical RNG streams and near-identical likelihoods: the clouds
  // should track each other closely (small divergence accumulates from
  // the ±½-step quantization of the EDT).
  EXPECT_NEAR(e32.pose.x(), eqm.pose.x(), 0.25);
  EXPECT_NEAR(e32.pose.y(), eqm.pose.y(), 0.25);
}

TEST(ParticleFilter, Fp16VariantStaysFiniteAndClose) {
  const auto grid = test_grid();
  const map::QuantizedDistanceMap qm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  const std::array<Beam, 16> beams = [] {
    std::array<Beam, 16> out;
    for (int i = 0; i < 16; ++i) {
      out[static_cast<std::size_t>(i)] =
          beam_at(-0.3 + 0.04 * i, 0.8 + 0.05 * i);
    }
    return out;
  }();

  ParticleFilter<Fp16QmTraits> pf(qm, small_config(1024), exec);
  pf.init_uniform(support, 0.025);
  for (int i = 0; i < 20; ++i) pf.update(Pose2{0.1, 0.01, 0.02}, beams);
  const PoseEstimate est = pf.compute_pose();
  ASSERT_TRUE(est.valid);
  EXPECT_TRUE(std::isfinite(est.pose.x()));
  const auto& soa = pf.soa();
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_FALSE(soa.weight[i].is_nan());
    EXPECT_FALSE(Half(static_cast<float>(soa.x[i])).is_inf());
  }
}

// The fused motion+observation kernel must be bit-identical to the
// phase-by-phase path: the observation consumes no randomness, so fusing
// only reorders the traversal over (particle, phase), never the
// arithmetic or the per-chunk RNG streams.
TEST(ParticleFilter, FusedKernelMatchesSeparatePhases) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  const std::array<Beam, 3> beams{beam_at(0.0, 1.0), beam_at(0.5, 1.2),
                                  beam_at(kPi, 1.7)};

  ParticleFilter<Fp32Traits> separate(dm, small_config(777), exec);
  ParticleFilter<Fp32Traits> fused(dm, small_config(777), exec);
  separate.init_uniform(support, 0.025);
  fused.init_uniform(support, 0.025);

  for (int round = 0; round < 4; ++round) {
    separate.motion_update(Pose2{0.1, 0.02, 0.05});
    separate.observation_update(beams);
    separate.resample();
    fused.motion_observation_update(Pose2{0.1, 0.02, 0.05}, beams);
    fused.resample();
  }
  const auto& a = separate.soa();
  const auto& b = fused.soa();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i])) << i;
    EXPECT_EQ(static_cast<float>(a.y[i]), static_cast<float>(b.y[i])) << i;
    EXPECT_EQ(static_cast<float>(a.yaw[i]), static_cast<float>(b.yaw[i]))
        << i;
    EXPECT_EQ(static_cast<float>(a.weight[i]),
              static_cast<float>(b.weight[i]))
        << i;
  }
  const PoseEstimate ea = separate.compute_pose();
  const PoseEstimate eb = fused.compute_pose();
  EXPECT_EQ(ea.pose.x(), eb.pose.x());
  EXPECT_EQ(ea.pose.y(), eb.pose.y());
  EXPECT_EQ(ea.pose.yaw, eb.pose.yaw);
}

TEST(ParticleFilter, FusedKernelWithEmptyBeamsIsMotionOnly) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> motion_only(dm, small_config(128), exec);
  ParticleFilter<Fp32Traits> fused(dm, small_config(128), exec);
  motion_only.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.1);
  fused.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.1);
  motion_only.motion_update(Pose2{0.2, 0.0, 0.1});
  fused.motion_observation_update(Pose2{0.2, 0.0, 0.1}, {});
  const auto& a = motion_only.soa();
  const auto& b = fused.soa();
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i])) << i;
    EXPECT_EQ(static_cast<float>(a.weight[i]),
              static_cast<float>(b.weight[i]))
        << i;
  }
  EXPECT_EQ(fused.workload().beams, 0u);
}

// Regression for the Augmented-MCL monitor with large beam counts (8×8
// zones × 2 sensors = 128 beams). The observation kernel normalizes each
// factor by its per-beam maximum z_hit + z_rand, so a well-matched
// particle keeps weight ≈ 1 for any beam count; the unnormalized product
// used to underflow fp32 (max weight (z_hit+z_rand)^128 ≈ 1e-90 here),
// zeroing every weight, and the monitor's pow(per_beam_max, beams)
// normalizer could underflow/overflow into inf/NaN — either way recovery
// injection was silently disabled.
TEST(ParticleFilter, InjectionMonitorSurvives128Beams) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  MclConfig cfg = small_config(256);
  cfg.z_hit = 0.18;  // per-beam max 0.2: 0.2^128 underflows fp32 by far
  cfg.z_rand = 0.02;
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
  pf.set_injection_support(support, 0.025);

  // 128 beams perfectly consistent with the pose (wall at x=2, 1 m ahead).
  std::vector<Beam> matched(128, beam_at(0.0, 1.0));
  pf.observation_update(matched);
  // The normalized product must survive fp32 storage: every factor is
  // ≈ its maximum, so the weight stays near 1 instead of 0.2^128 → 0.
  EXPECT_GT(static_cast<float>(pf.soa().weight[0]), 1e-3f);
  pf.resample();
  const InjectionMonitor& after_match = pf.injection_monitor();
  EXPECT_TRUE(std::isfinite(after_match.w_slow));
  EXPECT_TRUE(std::isfinite(after_match.w_fast));
  EXPECT_GT(after_match.w_slow, 0.0);

  // Now the observations disagree slightly everywhere (endpoints ~0.1 m
  // short of the wall — mild enough that the normalized 128-beam product
  // still fits in fp32): the short-term average must dive below the
  // long-term one and trigger a positive injection fraction.
  std::vector<Beam> mismatched(128, beam_at(0.0, 0.9));
  double max_inject = 0.0;
  for (int i = 0; i < 6; ++i) {
    pf.observation_update(mismatched);
    pf.resample();
    const InjectionMonitor& m = pf.injection_monitor();
    ASSERT_TRUE(std::isfinite(m.w_fast)) << "update " << i;
    ASSERT_TRUE(std::isfinite(m.w_slow)) << "update " << i;
    max_inject = std::max(max_inject, m.last_inject_p);
  }
  EXPECT_GT(max_inject, 0.0);
  EXPECT_LE(max_inject, cfg.injection_max_fraction);
}

// The fused kernel must stay bit-identical to the phased path with the
// short-return mixture AND novelty gating enabled: the per-beam state
// (floor, normalizer, gate verdict) is computed before the particle sweep
// from the same inputs in both paths, so only traversal order differs.
TEST(ParticleFilter, MixtureFusedKernelMatchesSeparatePhases) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(777);
  cfg.z_short = 0.4;
  cfg.lambda_short = 1.3;
  cfg.enable_novelty_gating = true;

  ParticleFilter<Fp32Traits> separate(dm, cfg, exec);
  ParticleFilter<Fp32Traits> fused(dm, cfg, exec);
  separate.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.05);
  fused.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.05);

  // Mixed evidence: a matched wall return, a short occluder return (to be
  // gated once the estimate concentrates) and a mild mismatch.
  const std::array<Beam, 3> beams{beam_at(0.0, 1.0), beam_at(0.0, 0.3),
                                  beam_at(kPi, 0.9)};
  for (int round = 0; round < 4; ++round) {
    separate.motion_update(Pose2{0.05, 0.01, 0.02});
    separate.observation_update(beams);
    separate.resample();
    separate.compute_pose();
    fused.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
    fused.resample();
    fused.compute_pose();
    EXPECT_EQ(separate.workload().gated_beams, fused.workload().gated_beams)
        << "round " << round;
  }
  const auto& a = separate.soa();
  const auto& b = fused.soa();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i])) << i;
    EXPECT_EQ(static_cast<float>(a.y[i]), static_cast<float>(b.y[i])) << i;
    EXPECT_EQ(static_cast<float>(a.yaw[i]), static_cast<float>(b.yaw[i]))
        << i;
    EXPECT_EQ(static_cast<float>(a.weight[i]),
              static_cast<float>(b.weight[i]))
        << i;
  }
  EXPECT_EQ(separate.estimate().pose.x(), fused.estimate().pose.x());
  EXPECT_EQ(separate.estimate().pose.y(), fused.estimate().pose.y());
  EXPECT_EQ(separate.estimate().pose.yaw, fused.estimate().pose.yaw);
  // The scenario actually exercised the gate (otherwise this test proves
  // nothing about the mixture path).
  EXPECT_GT(fused.workload().gated_beams, 0u);
}

// Phased vs fused across the gate's ARMING edge: the gate verdict reads
// the PREVIOUS estimate, so both paths must consult it at the same point
// of the update cycle. Start dispersed (gate disarmed), let matched
// evidence concentrate the cloud until the gate arms mid-trajectory, and
// require bit-identity plus identical gate decisions at every round —
// a traversal reordering that sampled the estimate at a different time
// would diverge exactly at the flip.
TEST(ParticleFilter, FusedMatchesPhasedAcrossGatingArming) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(512);
  cfg.enable_novelty_gating = true;

  ParticleFilter<Fp32Traits> separate(dm, cfg, exec);
  ParticleFilter<Fp32Traits> fused(dm, cfg, exec);
  // Yaw spread far beyond novelty_min_concentration, so the gate starts
  // DISARMED and only arms once the evidence has concentrated the cloud.
  separate.init_gaussian({1.0, 1.0, 0.0}, 0.15, 1.2);
  fused.init_gaussian({1.0, 1.0, 0.0}, 0.15, 1.2);

  // Matched wall returns plus a short occluder return that becomes
  // gateable the moment the gate arms (0.15 m + the 0.5 m margin stays
  // below the expected wall range even as the pose drifts forward).
  const std::array<Beam, 3> beams{beam_at(0.0, 1.0), beam_at(0.0, 0.15),
                                  beam_at(kPi, 1.0)};
  bool disarmed_seen = false;
  bool armed_seen = false;
  for (int round = 0; round < 12; ++round) {
    separate.motion_update(Pose2{0.02, 0.0, 0.01});
    separate.observation_update(beams);
    separate.resample();
    separate.compute_pose();
    fused.motion_observation_update(Pose2{0.02, 0.0, 0.01}, beams);
    fused.resample();
    fused.compute_pose();

    ASSERT_EQ(separate.workload().novelty_armed,
              fused.workload().novelty_armed)
        << "round " << round;
    ASSERT_EQ(separate.workload().gated_beams, fused.workload().gated_beams)
        << "round " << round;
    (fused.workload().novelty_armed ? armed_seen : disarmed_seen) = true;

    const auto& a = separate.soa();
    const auto& b = fused.soa();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i]))
          << "round " << round << " particle " << i;
      ASSERT_EQ(static_cast<float>(a.y[i]), static_cast<float>(b.y[i]))
          << "round " << round << " particle " << i;
      ASSERT_EQ(static_cast<float>(a.yaw[i]), static_cast<float>(b.yaw[i]))
          << "round " << round << " particle " << i;
      ASSERT_EQ(static_cast<float>(a.weight[i]),
                static_cast<float>(b.weight[i]))
          << "round " << round << " particle " << i;
    }
  }
  // The run must actually have crossed the arming edge — both states
  // observed, and the armed phase actually gated the occluder beam.
  EXPECT_TRUE(disarmed_seen);
  EXPECT_TRUE(armed_seen);
  EXPECT_GT(fused.workload().gated_beams, 0u);
}

// Novelty gating vs the injection monitor, the storm half: a tracked
// filter under SUSTAINED occlusion (a standing crowd / pacing walker in
// front of the forward sensor) must gate the short returns and keep
// w_fast/w_slow stable — no injection at all — where the ungated seed
// model's monitor dives and triggers recovery injection against a
// perfectly healthy estimate.
TEST(ParticleFilter, GatedOcclusionKeepsInjectionMonitorStable) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  MclConfig cfg = small_config(256);
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  cfg.enable_novelty_gating = true;

  MclConfig seed_cfg = cfg;
  seed_cfg.enable_novelty_gating = false;

  ParticleFilter<Fp32Traits> gated(dm, cfg, exec);
  ParticleFilter<Fp32Traits> ungated(dm, seed_cfg, exec);
  for (auto* pf : {&gated, &ungated}) {
    pf->init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
    pf->set_injection_support(support, 0.025);
  }

  // Warm-up with matched evidence (wall at x=2 one meter ahead, wall at
  // x=0 one meter behind) until the monitor has state and the estimate is
  // concentrated enough to arm the gate.
  const std::vector<Beam> matched{beam_at(0.0, 1.0), beam_at(kPi, 1.0)};
  for (int i = 0; i < 4; ++i) {
    for (auto* pf : {&gated, &ungated}) {
      pf->observation_update(matched);
      pf->resample();
      pf->compute_pose();
    }
  }
  const double w_slow_before = gated.injection_monitor().w_slow;
  ASSERT_GT(w_slow_before, 0.0);

  // Sustained occlusion: the forward return collapses to 0.3 m (person in
  // front of the mapped wall at 1.0 m) while the rear stays matched.
  const std::vector<Beam> occluded{beam_at(0.0, 0.3), beam_at(kPi, 1.0)};
  double ungated_max_inject = 0.0;
  for (int i = 0; i < 8; ++i) {
    gated.observation_update(occluded);
    EXPECT_TRUE(gated.workload().novelty_armed) << "update " << i;
    EXPECT_EQ(gated.workload().gated_beams, 1u) << "update " << i;
    gated.resample();
    EXPECT_EQ(gated.injection_monitor().last_inject_p, 0.0)
        << "update " << i;
    gated.compute_pose();

    ungated.observation_update(occluded);
    EXPECT_EQ(ungated.workload().gated_beams, 0u);
    ungated.resample();
    ungated_max_inject =
        std::max(ungated_max_inject, ungated.injection_monitor().last_inject_p);
    ungated.compute_pose();
  }
  // The gated monitor barely moved (only matched evidence reached it)…
  const InjectionMonitor& m = gated.injection_monitor();
  EXPECT_GT(m.w_fast, 0.9 * m.w_slow);
  EXPECT_NEAR(m.w_slow, w_slow_before, 0.1 * w_slow_before);
  // …while the seed model read the occlusion as "filter lost" and
  // injected (the storm this PR's gating exists to prevent).
  EXPECT_GT(ungated_max_inject, 0.0);
}

// The recovery half: gating must NEVER mask a genuine kidnapping. A
// teleported drone's returns are LONGER than the mapped expectation (or
// mismatched within the margin), which the gate deliberately lets
// through, so the monitor still dives and injection still fires.
TEST(ParticleFilter, GenuineKidnappingStillTriggersInjection) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  MclConfig cfg = small_config(256);
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  cfg.enable_novelty_gating = true;
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
  pf.set_injection_support(support, 0.025);

  const std::vector<Beam> matched{beam_at(0.0, 1.0), beam_at(kPi, 1.0)};
  for (int i = 0; i < 4; ++i) {
    pf.observation_update(matched);
    pf.resample();
    pf.compute_pose();
  }

  // Teleport: the real drone now sees the forward wall 2.5 m away where
  // the (stale) estimate expects it at 1.0 m. A mapped surface lies well
  // inside range + margin, so the beam is NOT gated — and must not be.
  const std::vector<Beam> teleported{beam_at(0.0, 2.5), beam_at(kPi, 2.5)};
  double max_inject = 0.0;
  for (int i = 0; i < 8; ++i) {
    pf.observation_update(teleported);
    EXPECT_EQ(pf.workload().gated_beams, 0u) << "update " << i;
    pf.resample();
    max_inject = std::max(max_inject, pf.injection_monitor().last_inject_p);
    pf.compute_pose();
  }
  EXPECT_GT(max_inject, 0.0);
  EXPECT_LE(max_inject, cfg.injection_max_fraction);
}

// The deadlock case of the previous test: a kidnapping toward NEARER
// surfaces makes every beam read shorter than the stale expectation, so
// the gate would exclude ALL of them — no evidence reaches the monitor,
// the estimate stays concentrated, and the gate would stay armed forever.
// The blind-streak fail-safe (novelty_max_blind_updates) must stand the
// gate down after a bounded number of fully-gated corrections so the raw
// mismatch reaches the weights and injection still fires.
TEST(ParticleFilter, FullyGatedKidnappingStillTriggersInjection) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  MclConfig cfg = small_config(256);
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  cfg.enable_novelty_gating = true;
  ParticleFilter<Fp32Traits> pf(dm, cfg, exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
  pf.set_injection_support(support, 0.025);

  const std::vector<Beam> matched{beam_at(0.0, 1.0), beam_at(kPi, 1.0)};
  for (int i = 0; i < 4; ++i) {
    pf.observation_update(matched);
    pf.resample();
    pf.compute_pose();
  }

  // Teleport into a tight corner: BOTH returns collapse to 0.3 m where
  // the stale estimate expects walls at 1.0 m — every beam gates.
  const std::vector<Beam> near_walls{beam_at(0.0, 0.3), beam_at(kPi, 0.3)};
  std::size_t fully_gated = 0;
  double max_inject = 0.0;
  for (int i = 0; i < 20; ++i) {
    pf.observation_update(near_walls);
    if (pf.workload().gated_beams == near_walls.size()) ++fully_gated;
    pf.resample();
    max_inject = std::max(max_inject, pf.injection_monitor().last_inject_p);
    pf.compute_pose();
  }
  // The gate blinded the filter only for the configured streak, then
  // stood down and let the evidence through — injection fired.
  EXPECT_GT(fully_gated, 0u);
  EXPECT_LT(fully_gated, 20u);
  EXPECT_GT(max_inject, 0.0);
}

TEST(ParticleFilter, WorkloadReported) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  ParticleFilter<Fp32Traits> pf(dm, small_config(128), exec);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.1);
  const std::array<Beam, 3> beams{beam_at(0, 1), beam_at(1, 1),
                                  beam_at(2, 1)};
  pf.observation_update(beams);
  EXPECT_EQ(pf.workload().particles, 128u);
  EXPECT_EQ(pf.workload().beams, 3u);
}

}  // namespace
}  // namespace tofmcl::core
