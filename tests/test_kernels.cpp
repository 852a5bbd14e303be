// Backend-equivalence suite for the SIMD observation kernels
// (src/core/kernels/): every supported SIMD backend must reproduce the
// scalar determinism reference within the tolerance gates of the kernel
// contract — max weight ULP delta bounded (zero in practice on x86,
// where the baseline build has no FMA contraction to diverge from) and
// identical pose estimates within ATE-level bounds across full
// motion/observation/resample trajectories.
//
// Positions and yaws must match BITWISE in every scenario: the motion
// phase and resampling are scalar on all backends and both filters
// consume identical per-chunk RNG streams, so only the weight array can
// ever carry backend-dependent rounding.
//
// Registered under the `kernels` ctest label (tests/CMakeLists.txt); CI
// runs `ctest -L kernels` in the dedicated kernels job.

#include "core/kernels/kernel_backend.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/particle_filter.hpp"
#include "map/rasterize.hpp"

namespace tofmcl::core {
namespace {

using sensor::Beam;

// Same world as test_particle_filter: 4×4 m box with a wall at x=2.
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

/// Tolerance gate on the weight array. Zero on x86 (no contraction in
/// the baseline build, and F16C matches the software Half bit for bit);
/// a small allowance covers aarch64, where -ffp-contract may fuse the
/// scalar reference's multiply-adds.
constexpr std::int64_t kMaxWeightUlp = 8;

/// Ordered-integer distance between two binary32 values (the usual
/// sign-magnitude → two's-complement-ordered trick).
std::int64_t ulp_delta(float a, float b) {
  const auto ordered = [](float v) -> std::int64_t {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    const auto mag = static_cast<std::int64_t>(bits & 0x7FFFFFFFu);
    return (bits & 0x80000000u) == 0 ? mag : -mag;
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

std::int64_t ulp_delta(Half a, Half b) {
  const auto ordered = [](Half h) -> std::int64_t {
    const auto bits = static_cast<std::int64_t>(h.bits());
    return (bits & 0x8000) == 0 ? bits : -(bits & 0x7FFF);
  };
  const std::int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

/// Asserts the backend contract between two filters that consumed the
/// same inputs: bitwise-equal poses/positions, ULP-bounded weights.
template <typename Traits>
void expect_state_matches(const ParticleFilter<Traits>& scalar_pf,
                          const ParticleFilter<Traits>& simd_pf,
                          const char* where) {
  const auto& a = scalar_pf.soa();
  const auto& b = simd_pf.soa();
  ASSERT_EQ(a.size(), b.size()) << where;
  std::int64_t max_ulp = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(static_cast<float>(a.x[i]), static_cast<float>(b.x[i]))
        << where << " particle " << i;
    ASSERT_EQ(static_cast<float>(a.y[i]), static_cast<float>(b.y[i]))
        << where << " particle " << i;
    ASSERT_EQ(static_cast<float>(a.yaw[i]), static_cast<float>(b.yaw[i]))
        << where << " particle " << i;
    max_ulp = std::max(max_ulp, ulp_delta(a.weight[i], b.weight[i]));
  }
  EXPECT_LE(max_ulp, kMaxWeightUlp) << where;
}

/// SIMD backends available on this host (empty → suite self-skips).
std::vector<kernels::KernelBackend> simd_backends() {
  std::vector<kernels::KernelBackend> out;
  if (kernels::backend_supported(kernels::KernelBackend::kAvx2)) {
    out.push_back(kernels::KernelBackend::kAvx2);
  }
  return out;
}

TEST(Kernels, BackendIntrospectionIsConsistent) {
  // Scalar is always compiled and always supported.
  EXPECT_TRUE(kernels::backend_compiled(kernels::KernelBackend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(kernels::KernelBackend::kScalar));
  // Supported implies compiled, and the default/best backend is usable.
  if (kernels::backend_supported(kernels::KernelBackend::kAvx2)) {
    EXPECT_TRUE(kernels::backend_compiled(kernels::KernelBackend::kAvx2));
  }
  EXPECT_TRUE(kernels::backend_supported(kernels::best_supported_backend()));
  EXPECT_TRUE(kernels::backend_supported(kernels::default_backend()));
  EXPECT_STREQ(kernels::to_string(kernels::KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(kernels::to_string(kernels::KernelBackend::kAvx2), "avx2");
}

// Randomized configurations: particle counts off the vector-width
// multiple (tail handling), varied beam decks, varied observation-model
// shapes. One motion+observation step from identical state per trial so
// weight deltas cannot amplify through resampling before being measured.
TEST(Kernels, RandomizedConfigsMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  Rng rng(2024);

  for (const auto backend : backends) {
    for (int trial = 0; trial < 8; ++trial) {
      MclConfig cfg = small_config(65 + rng.uniform_index(400));
      cfg.sigma_obs = rng.uniform(0.05, 0.3);
      cfg.z_hit = rng.uniform(0.5, 0.95);
      cfg.z_rand = 1.0 - cfg.z_hit;
      cfg.seed = 100 + static_cast<std::uint64_t>(trial);

      std::vector<Beam> beams(3 + rng.uniform_index(30));
      for (auto& b : beams) {
        b = beam_at(rng.uniform(-kPi, kPi), rng.uniform(0.2, 1.4));
      }
      const Pose2 init{rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5),
                       rng.uniform(-kPi, kPi)};

      ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
      ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
      simd_pf.set_kernel_backend(backend);
      scalar_pf.init_gaussian(init, 0.2, 0.6);
      simd_pf.init_gaussian(init, 0.2, 0.6);

      scalar_pf.motion_update(Pose2{0.05, 0.01, 0.02});
      simd_pf.motion_update(Pose2{0.05, 0.01, 0.02});
      scalar_pf.observation_update(beams);
      simd_pf.observation_update(beams);
      expect_state_matches(scalar_pf, simd_pf, "randomized trial");
    }
  }
}

// Tiny particle counts: everything below one vector block must run
// through the scalar tail and still match, including N < lane count.
TEST(Kernels, TailOnlyCountsMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(0.4, 1.2)};

  for (const auto backend : backends) {
    for (const std::size_t n : {1u, 3u, 7u, 8u, 9u, 15u, 17u}) {
      MclConfig cfg = small_config(n);
      cfg.chunks = 1;  // chunks may not exceed the particle count
      ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
      ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
      simd_pf.set_kernel_backend(backend);
      scalar_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
      simd_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
      scalar_pf.observation_update(beams);
      simd_pf.observation_update(beams);
      expect_state_matches(scalar_pf, simd_pf, "tail count");
    }
  }
}

// The 128-beam near-underflow regime of the injection-monitor tests:
// per-beam factors ≈ 0.2, so the raw 128-beam product underflows fp32 by
// far and survival depends on the per-beam normalizer. The SIMD product
// must track the scalar one through that cliff.
TEST(Kernels, NearUnderflow128BeamsMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(251);  // off the lane multiple on purpose
  cfg.z_hit = 0.18;
  cfg.z_rand = 0.02;
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  const std::vector<Beam> matched(128, beam_at(0.0, 1.0));

  for (const auto backend : backends) {
    ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
    ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
    simd_pf.set_kernel_backend(backend);
    scalar_pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
    simd_pf.init_gaussian({1.0, 1.0, 0.0}, 0.0, 0.0);
    scalar_pf.observation_update(matched);
    simd_pf.observation_update(matched);
    expect_state_matches(scalar_pf, simd_pf, "128 beams");
    // The normalized product actually survived (the scenario is live).
    EXPECT_GT(static_cast<float>(simd_pf.soa().weight[0]), 1e-3f);
  }
}

// Short-return mixture + novelty gating over a multi-round trajectory:
// the sweep beams (floor, normalizer, gated beams left out) feed the
// SIMD path through BeamSweepView and must produce the same weights and
// the same gate decisions round after round.
TEST(Kernels, MixtureAndGatingMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(333);
  cfg.z_short = 0.4;
  cfg.lambda_short = 1.3;
  cfg.enable_novelty_gating = true;
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(0.0, 0.3),
                                beam_at(kPi, 0.9)};

  for (const auto backend : backends) {
    ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
    ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
    simd_pf.set_kernel_backend(backend);
    scalar_pf.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.05);
    simd_pf.init_gaussian({1.0, 1.0, 0.0}, 0.1, 0.05);

    for (int round = 0; round < 5; ++round) {
      scalar_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
      simd_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
      expect_state_matches(scalar_pf, simd_pf, "mixture round");
      ASSERT_EQ(scalar_pf.workload().gated_beams,
                simd_pf.workload().gated_beams)
          << "round " << round;
      scalar_pf.resample();
      simd_pf.resample();
      scalar_pf.compute_pose();
      simd_pf.compute_pose();
    }
    // The gate must actually have fired for this test to mean anything.
    EXPECT_GT(simd_pf.workload().gated_beams, 0u);
  }
}

// Full trajectory with KLD-adaptive particle counts: the budget shrinks
// as the cloud converges and snaps back to the full budget on a recovery
// injection. The backends must agree on every resize decision (sizes are
// derived from the weights) and end within ATE-level pose bounds.
TEST(Kernels, AdaptiveShrinkAndSnapBackMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  const auto support = grid.free_cell_centers();
  SerialExecutor exec;
  MclConfig cfg = small_config(1024);
  cfg.adaptive_particles = true;
  cfg.min_particles = 128;
  cfg.sigma_odom_xy = 0.0;
  cfg.sigma_odom_yaw = 0.0;
  const std::vector<Beam> matched{beam_at(0.0, 1.0), beam_at(kPi, 1.0)};
  const std::vector<Beam> teleport{beam_at(0.0, 0.4), beam_at(kPi, 1.6)};

  for (const auto backend : backends) {
    ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
    ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
    simd_pf.set_kernel_backend(backend);
    for (auto* pf : {&scalar_pf, &simd_pf}) {
      pf->init_gaussian({1.0, 1.0, 0.0}, 0.2, 0.3);
      pf->set_injection_support(support, 0.025);
    }

    std::size_t min_size = cfg.num_particles;
    std::size_t max_size_after_shrink = 0;
    const auto step = [&](const std::vector<Beam>& beams) {
      scalar_pf.observation_update(beams);
      simd_pf.observation_update(beams);
      expect_state_matches(scalar_pf, simd_pf, "adaptive step");
      scalar_pf.resample();
      simd_pf.resample();
      scalar_pf.compute_pose();
      simd_pf.compute_pose();
      // The Localizer's correction order: adapt after resample + pose.
      scalar_pf.adapt_particle_count();
      simd_pf.adapt_particle_count();
      ASSERT_EQ(scalar_pf.size(), simd_pf.size());
      min_size = std::min(min_size, simd_pf.size());
    };
    for (int i = 0; i < 10; ++i) step(matched);   // converge → shrink
    EXPECT_LT(min_size, cfg.num_particles);
    // Kidnap: recovery injection fires and snaps the budget straight back
    // to the full count at some point during the recovery (the filter may
    // legitimately re-converge and shrink again before the loop ends).
    for (int i = 0; i < 8; ++i) {
      step(teleport);
      max_size_after_shrink = std::max(max_size_after_shrink, simd_pf.size());
    }
    EXPECT_EQ(max_size_after_shrink, cfg.num_particles);

    const PoseEstimate ea = scalar_pf.estimate();
    const PoseEstimate eb = simd_pf.estimate();
    EXPECT_NEAR(ea.pose.x(), eb.pose.x(), 0.05);
    EXPECT_NEAR(ea.pose.y(), eb.pose.y(), 0.05);
    EXPECT_NEAR(ea.pose.yaw, eb.pose.yaw, 0.05);
  }
}

// Opt-in fp16 weight storage (MclConfig::weight_precision): the SIMD
// round-trip (F16C on x86) must agree with the scalar software rounding
// for every weight.
TEST(Kernels, Fp16WeightPrecisionMatchesScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  MclConfig cfg = small_config(300);
  cfg.weight_precision = WeightPrecision::kFp16;
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(0.3, 0.8),
                                beam_at(-0.4, 1.3)};

  for (const auto backend : backends) {
    ParticleFilter<Fp32QmTraits> scalar_pf(dm, cfg, exec);
    ParticleFilter<Fp32QmTraits> simd_pf(dm, cfg, exec);
    simd_pf.set_kernel_backend(backend);
    scalar_pf.init_gaussian({1.2, 1.4, 0.2}, 0.3, 0.5);
    simd_pf.init_gaussian({1.2, 1.4, 0.2}, 0.3, 0.5);
    for (int round = 0; round < 3; ++round) {
      scalar_pf.motion_observation_update(Pose2{0.05, 0.0, 0.01}, beams);
      simd_pf.motion_observation_update(Pose2{0.05, 0.0, 0.01}, beams);
      expect_state_matches(scalar_pf, simd_pf, "fp16-store round");
      // Every weight sits exactly on a binary16 value in BOTH filters.
      for (const auto weight : simd_pf.soa().weight) {
        const float w = static_cast<float>(weight);
        EXPECT_EQ(w, half_bits_to_float(float_to_half_bits(w)));
      }
      scalar_pf.resample();
      simd_pf.resample();
    }
  }
}

// Native fp16 particle storage (Fp16QmTraits): weights are halfs, the
// SIMD path converts through F16C/software per block and must stay
// within the half-ULP gate.
TEST(Kernels, Fp16QmTraitsMatchScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::QuantizedDistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  const MclConfig cfg = small_config(300);
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(0.5, 1.2),
                                beam_at(kPi, 1.7)};

  for (const auto backend : backends) {
    ParticleFilter<Fp16QmTraits> scalar_pf(dm, cfg, exec);
    ParticleFilter<Fp16QmTraits> simd_pf(dm, cfg, exec);
    simd_pf.set_kernel_backend(backend);
    scalar_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
    simd_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
    for (int round = 0; round < 3; ++round) {
      scalar_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
      simd_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
      expect_state_matches(scalar_pf, simd_pf, "fp16qm round");
      scalar_pf.resample();
      simd_pf.resample();
    }
  }
}

// The Direct (float-EDT) observation model has no SIMD path by design —
// requesting a SIMD backend on Fp32Traits must be a harmless no-op that
// stays bit-identical to the scalar backend.
TEST(Kernels, DirectModelIgnoresBackendRequest) {
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  const MclConfig cfg = small_config(200);
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(0.4, 1.2)};

  ParticleFilter<Fp32Traits> scalar_pf(dm, cfg, exec);
  ParticleFilter<Fp32Traits> simd_pf(dm, cfg, exec);
  simd_pf.set_kernel_backend(kernels::best_supported_backend());
  scalar_pf.set_kernel_backend(kernels::KernelBackend::kScalar);
  scalar_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
  simd_pf.init_gaussian({1.0, 1.0, 0.0}, 0.3, 0.5);
  for (int round = 0; round < 3; ++round) {
    scalar_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
    simd_pf.motion_observation_update(Pose2{0.05, 0.01, 0.02}, beams);
    const auto& a = scalar_pf.soa();
    const auto& b = simd_pf.soa();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(static_cast<float>(a.weight[i]),
                static_cast<float>(b.weight[i]))
          << i;
    }
    scalar_pf.resample();
    simd_pf.resample();
  }
}

}  // namespace
}  // namespace tofmcl::core
