// Backend-equivalence suite for the SIMD motion and observation kernels
// (src/core/kernels/): every supported SIMD backend must reproduce the
// scalar determinism reference bit for bit — identical weights (the build
// contracts no FMAs, and F16C matches the software Half exactly),
// positions and yaws across full motion/observation/resample
// trajectories, and identical generator states. One test calls the motion
// sweep directly over every chunk length up to 200 with edge-case yaws and
// spare states; another calls the observation kernel on a hand-built map
// whose code array borders inaccessible pages, pinning the bounds of the
// AVX2 code gather.
//
// Registered under the `kernels` ctest label (tests/CMakeLists.txt); CI
// runs `ctest -L kernels` in the dedicated kernels job.

#include "core/kernels/kernel_backend.hpp"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/kernels/motion_kernel.hpp"
#include "core/kernels/observation_kernel.hpp"
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

/// Gate on the weight array: bit-identical. The build contracts no FMAs,
/// and F16C rounds exactly like the software Half.
constexpr std::int64_t kMaxWeightUlp = 0;

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
/// same inputs: bitwise-equal poses, positions and weights.
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

// The Direct (float-EDT) observation model has no SIMD path by design:
// on Fp32Traits a SIMD backend runs the motion kernel and the scalar
// observation step, and must stay bit-identical to the scalar backend.
TEST(Kernels, DirectModelMatchesScalar) {
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
    expect_state_matches(scalar_pf, simd_pf, "direct model round");
    scalar_pf.resample();
    simd_pf.resample();
  }
}

// set_kernel_backend keeps a backend only when this build and CPU can run
// it; anything else resolves to the scalar reference at once, so no
// dispatch site ever sees an unsupported backend.
TEST(Kernels, SetKernelBackendResolvesUnsupportedToScalar) {
  const auto grid = test_grid();
  const map::QuantizedDistanceMap qm(grid, 1.5);
  const map::DistanceMap dm(grid, 1.5);
  SerialExecutor exec;
  const auto check = [](auto& pf) {
    EXPECT_EQ(pf.kernel_backend(), kernels::default_backend());
    for (const auto requested :
         {kernels::KernelBackend::kScalar, kernels::KernelBackend::kAvx2,
          static_cast<kernels::KernelBackend>(7),
          kernels::KernelBackend::kAvx2, kernels::KernelBackend::kScalar}) {
      pf.set_kernel_backend(requested);
      EXPECT_EQ(pf.kernel_backend(), kernels::backend_supported(requested)
                                         ? requested
                                         : kernels::KernelBackend::kScalar)
          << "requested " << kernels::to_string(requested);
    }
  };
  ParticleFilter<Fp32QmTraits> fp32qm(qm, small_config(64), exec);
  check(fp32qm);
  ParticleFilter<Fp16QmTraits> fp16qm(qm, small_config(64), exec);
  check(fp16qm);
  ParticleFilter<Fp32Traits> fp32(dm, small_config(64), exec);
  check(fp32);
}

/// Bit pattern of a particle field value.
std::uint32_t bits_of(float v) { return std::bit_cast<std::uint32_t>(v); }
std::uint32_t bits_of(Half v) { return v.bits(); }

/// Asserts that two generators are in the same state: the xoshiro words,
/// the spare flag and the spare value, stale or not.
::testing::AssertionResult same_rng(const Rng& a, const Rng& b) {
  const Rng::Snapshot sa = a.snapshot();
  const Rng::Snapshot sb = b.snapshot();
  if (sa.state != sb.state) {
    return ::testing::AssertionFailure() << "xoshiro words differ";
  }
  if (std::bit_cast<std::uint64_t>(sa.cached) !=
      std::bit_cast<std::uint64_t>(sb.cached)) {
    return ::testing::AssertionFailure()
           << "spare value " << sa.cached << " vs " << sb.cached;
  }
  if (sa.has_cached != sb.has_cached) {
    return ::testing::AssertionFailure() << "spare flag differs";
  }
  return ::testing::AssertionSuccess();
}

/// Asserts that two particle arrays hold the same bits.
template <typename T>
::testing::AssertionResult same_bits(const std::vector<T>& a,
                                     const std::vector<T>& b,
                                     const char* field) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits_of(a[i]) != bits_of(b[i])) {
      return ::testing::AssertionFailure()
             << field << "[" << i << "]: " << static_cast<float>(a[i])
             << " vs " << static_cast<float>(b[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Yaws on both sides of the (−π, π] edges (as floats, and the binary16
/// neighbours of π), non-finite and huge values, and ordinary ones.
std::vector<float> edge_yaws() {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float pi_out = static_cast<float>(kPi);  // rounds up: just past π
  const float pi_in = std::nextafter(pi_out, 0.0f);
  EXPECT_GT(static_cast<double>(pi_out), kPi);
  EXPECT_LE(static_cast<double>(pi_in), kPi);
  const float half_pi_out = 3.142578125f;  // least binary16 above π
  return {0.0f,     pi_in,     pi_out,       -pi_in,
          -pi_out,  kInf,      -kInf,        std::nanf(""),
          1e30f,    -1e30f,    half_pi_out,  -half_pi_out,
          3.0f,     -3.1f,     0.5f,         -1.25f};
}

/// One motion sweep over chunk [kBegin, kBegin + length) on the scalar
/// reference and on `backend`, from identical particles and generators.
/// Both must leave every particle bit and the whole generator state equal,
/// and the particles outside the chunk untouched. `*after` receives the
/// generator the reference left, so sweeps can be chained.
template <typename T>
void expect_motion_sweep_matches(kernels::KernelBackend backend,
                                 const kernels::MotionParams& mp,
                                 const Rng& rng, std::size_t length,
                                 Rng* after) {
  constexpr std::size_t kBegin = 3;
  using Spans = std::conditional_t<std::is_same_v<T, Half>,
                                   kernels::MotionSpansF16,
                                   kernels::MotionSpansF32>;
  const std::vector<float> yaws = edge_yaws();
  std::vector<T> x(length + 2 * kBegin);
  std::vector<T> y(x.size());
  std::vector<T> yaw(x.size());
  Rng fill(length + 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = T(static_cast<float>(fill.uniform(-5.0, 5.0)));
    y[i] = T(static_cast<float>(fill.uniform(-5.0, 5.0)));
    yaw[i] = T(i % 3 == 0 ? static_cast<float>(fill.uniform(-kPi, kPi))
                          : yaws[(i / 3) % yaws.size()]);
  }
  const std::vector<T> x0 = x;
  const std::vector<T> y0 = y;
  const std::vector<T> yaw0 = yaw;
  std::vector<T> sx = x;
  std::vector<T> sy = y;
  std::vector<T> syaw = yaw;

  Rng scalar_rng = rng;
  Rng simd_rng = rng;
  kernels::motion_sweep(kernels::KernelBackend::kScalar, mp, scalar_rng,
                        Spans{sx.data(), sy.data(), syaw.data()}, kBegin,
                        kBegin + length);
  kernels::motion_sweep(backend, mp, simd_rng,
                        Spans{x.data(), y.data(), yaw.data()}, kBegin,
                        kBegin + length);
  EXPECT_TRUE(same_bits(sx, x, "x"));
  EXPECT_TRUE(same_bits(sy, y, "y"));
  EXPECT_TRUE(same_bits(syaw, yaw, "yaw"));
  EXPECT_TRUE(same_rng(scalar_rng, simd_rng));
  for (const std::size_t i : {std::size_t{0}, kBegin - 1, kBegin + length,
                              x.size() - 1}) {
    EXPECT_EQ(bits_of(x[i]), bits_of(x0[i])) << "x outside the chunk " << i;
    EXPECT_EQ(bits_of(y[i]), bits_of(y0[i])) << "y outside the chunk " << i;
    EXPECT_EQ(bits_of(yaw[i]), bits_of(yaw0[i]))
        << "yaw outside the chunk " << i;
  }
  *after = scalar_rng;
}

// The motion kernel against the scalar reference, called directly: every
// chunk length 0–200 (tails, 64-particle noise-block boundaries and
// serve_paced's 16-particle chunks), odd and even normal counts, a
// generator entering with no spare, a pending spare or a stale spare
// value, yaws at and just past ±π, ±inf, NaN and ±1e30, and a zero, an
// ordinary, a large and an overflowing noise scale. After every call the
// x/y/yaw bits and the whole Rng::Snapshot must match.
TEST(Kernels, MotionSweepMatchesScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const kernels::MotionParams noise[] = {
      {0.05, -0.01, 0.0, 0.0, 0.0},      // the yaw sum is the yaw itself
      {0.05, 0.01, 0.02, 0.02, 0.05},    // an ordinary gated tick
      {0.3, -0.2, 0.1, 1e3, 1e3},        // most yaws leave (−π, π]
      {0.0, 0.0, 0.0, 1e39, 1e39},       // samples overflow float
  };
  for (const auto backend : backends) {
    for (std::size_t k = 0; k < std::size(noise); ++k) {
      for (int spare = 0; spare < 3; ++spare) {
        Rng rng(1000 + 7 * k + static_cast<std::uint64_t>(spare));
        // 0: no spare; 1: a pending spare; 2: a consumed (stale) one.
        for (int i = 0; i < spare; ++i) rng.gaussian();
        for (std::size_t length = 0; length <= 200; ++length) {
          SCOPED_TRACE(::testing::Message()
                       << kernels::to_string(backend) << " noise " << k
                       << " spare " << spare << " length " << length);
          Rng after = rng;
          expect_motion_sweep_matches<float>(backend, noise[k], rng, length,
                                             &after);
          expect_motion_sweep_matches<Half>(backend, noise[k], rng, length,
                                            &after);
          if (HasFailure()) return;
          // The next length starts where this sweep left the generator:
          // spares pending or stale in every combination.
          rng = after;
        }
      }
    }
  }
}

/// Flies the same ticks on a scalar filter and on a `backend` filter:
/// mostly gated-out ticks (motion only) and every third one a correction
/// (fused motion + observation, resample, pose). After every tick the two
/// save_state blobs must be byte-identical.
template <typename Traits>
void expect_gated_flight_matches(kernels::KernelBackend backend,
                                 const typename Traits::Map& map) {
  SerialExecutor exec;
  MclConfig cfg = small_config(300);  // 8 chunks of 37–38: blocks + tails
  cfg.z_short = 0.4;
  ParticleFilter<Traits> scalar_pf(map, cfg, exec);
  ParticleFilter<Traits> simd_pf(map, cfg, exec);
  scalar_pf.set_kernel_backend(kernels::KernelBackend::kScalar);
  simd_pf.set_kernel_backend(backend);
  scalar_pf.init_gaussian({1.0, 1.0, 3.0}, 0.2, 0.4);
  simd_pf.init_gaussian({1.0, 1.0, 3.0}, 0.2, 0.4);
  const std::vector<Beam> beams{beam_at(0.0, 1.0), beam_at(1.2, 0.8),
                                beam_at(kPi, 0.9)};
  for (int tick = 0; tick < 40; ++tick) {
    const Pose2 delta{0.01 + 0.002 * (tick % 4), 0.003 * (tick % 3),
                      0.04 * (tick % 5) - 0.06};
    for (auto* pf : {&scalar_pf, &simd_pf}) {
      if (tick % 3 == 2) {
        pf->motion_observation_update(delta, beams);
        pf->resample();
        pf->compute_pose();
      } else {
        pf->motion_update(delta);
      }
    }
    map::SnapshotWriter a;
    map::SnapshotWriter b;
    scalar_pf.save_state(a);
    simd_pf.save_state(b);
    ASSERT_EQ(a.bytes(), b.bytes()) << "tick " << tick;
  }
}

// A gated flight through ParticleFilter: motion_update on gated-out ticks
// and the fused pass on corrections must leave byte-identical filter state
// (particles, every chunk's generator, estimate) on the scalar and the
// SIMD backend, for all three precisions.
TEST(Kernels, GatedFlightStateMatchesScalar) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  const auto grid = test_grid();
  const map::DistanceMap dm(grid, 1.5);
  const map::QuantizedDistanceMap qm(grid, 1.5);
  for (const auto backend : backends) {
    SCOPED_TRACE(kernels::to_string(backend));
    expect_gated_flight_matches<Fp32Traits>(backend, dm);
    expect_gated_flight_matches<Fp32QmTraits>(backend, qm);
    expect_gated_flight_matches<Fp16QmTraits>(backend, qm);
  }
}

/// A byte array placed flush against an inaccessible (PROT_NONE) page:
/// it ends where the page begins (`guard_after`) or begins where the page
/// ends. Reading one byte past the array's end, or one before its start,
/// faults.
class GuardedBytes {
 public:
  GuardedBytes(std::size_t size, bool guard_after)
      : page_(static_cast<std::size_t>(::sysconf(_SC_PAGESIZE))) {
    if (size > page_) return;
    void* p = ::mmap(nullptr, 2 * page_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return;
    base_ = static_cast<std::uint8_t*>(p);
    std::uint8_t* guard = guard_after ? base_ + page_ : base_;
    if (::mprotect(guard, page_, PROT_NONE) != 0) return;
    data_ = guard_after ? guard - size : guard + page_;
  }
  ~GuardedBytes() {
    if (base_ != nullptr) ::munmap(base_, 2 * page_);
  }
  GuardedBytes(const GuardedBytes&) = delete;
  GuardedBytes& operator=(const GuardedBytes&) = delete;

  /// nullptr when the mapping could not be set up.
  std::uint8_t* data() const { return data_; }

 private:
  std::size_t page_;
  std::uint8_t* base_ = nullptr;
  std::uint8_t* data_ = nullptr;
};

/// QuantizedDistanceMap::code_at's rule over a LutMapView.
std::uint8_t code_at(const kernels::LutMapView& m, float x, float y) {
  const int cx = static_cast<int>(
      std::floor((static_cast<double>(x) - m.origin_x) / m.resolution));
  const int cy = static_cast<int>(
      std::floor((static_cast<double>(y) - m.origin_y) / m.resolution));
  if (cx < 0 || cx >= m.width || cy < 0 || cy >= m.height) return 255;
  return m.codes[static_cast<std::size_t>(cy) *
                     static_cast<std::size_t>(m.width) +
                 static_cast<std::size_t>(cx)];
}

/// One sweep beam at the body origin with floor 0 and scale 1: a particle
/// of weight 1 comes out weighing exactly the LUT entry of its own cell.
constexpr SweepBeam kBeamAtOrigin{Vec2f{0.0f, 0.0f}, 0.0f, 1.0f};

/// Sweeps one particle (yaw 0, weight 1) at the center of every cell of
/// `m` and of the ring of cells around it, padded to whole blocks with
/// particles far off the map, and expects each weight to be the LUT
/// entry of code_at's code. T is the particle scalar: float or Half.
template <typename T>
void expect_lut_of_every_cell(kernels::KernelBackend backend,
                              const kernels::LutMapView& m,
                              const char* where) {
  using Spans = std::conditional_t<std::is_same_v<T, Half>,
                                   kernels::SweepSpansF16,
                                   kernels::SweepSpansF32>;
  const auto center = [&](double origin, int cell) {
    return T(static_cast<float>(origin + (cell + 0.5) * m.resolution));
  };
  std::vector<T> x;
  std::vector<T> y;
  for (int cy = -1; cy <= m.height; ++cy) {
    for (int cx = -1; cx <= m.width; ++cx) {
      x.push_back(center(m.origin_x, cx));
      y.push_back(center(m.origin_y, cy));
    }
  }
  while (x.size() % 8 != 0) {
    x.push_back(T(-1000.0f));
    y.push_back(T(1000.0f));
  }
  const std::vector<T> yaw(x.size(), T(0.0f));
  std::vector<T> weight(x.size(), T(1.0f));
  const std::size_t handled = kernels::observation_sweep(
      backend, m, kernels::BeamSweepView{&kBeamAtOrigin, 1},
      Spans{x.data(), y.data(), yaw.data(), weight.data()}, 0, x.size());
  ASSERT_EQ(handled, x.size()) << where;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint8_t code =
        code_at(m, static_cast<float>(x[i]), static_cast<float>(y[i]));
    EXPECT_EQ(static_cast<float>(weight[i]),
              static_cast<float>(T(m.lut[code])))
        << where << " particle " << i << " code " << int{code};
  }
}

// The AVX2 kernel fetches each lane's code through a 4-byte gather
// window, clamped to the last whole window of the code array and shifted
// down to the cell's byte. Tests over rasterized maps cannot see that
// logic (there the last cells share one code), so here every cell has
// its own code and the code array borders an inaccessible page on either
// side: a wrong shift picks a neighbour's LUT entry, and a window that
// leaves the array faults.
TEST(Kernels, CodeGatherStaysInsideTheCodeArray) {
  const auto backends = simd_backends();
  if (backends.empty()) GTEST_SKIP() << "no SIMD backend on this host";
  std::vector<float> lut(256);
  for (std::size_t k = 0; k < lut.size(); ++k) {
    lut[k] = 0.5f + static_cast<float>(k);  // exact in binary16 as well
  }

  for (const auto backend : backends) {
    for (const auto& [width, height] : {std::pair{7, 5}, std::pair{2, 2}}) {
      const auto cells = static_cast<std::size_t>(width * height);
      for (const bool guard_after : {true, false}) {
        const GuardedBytes codes(cells, guard_after);
        ASSERT_NE(codes.data(), nullptr) << "mmap/mprotect failed";
        for (std::size_t i = 0; i < cells; ++i) {
          codes.data()[i] = static_cast<std::uint8_t>(3 * i + 1);
        }
        const kernels::LutMapView m{codes.data(), width, height, -1.0,
                                    2.0,          0.5,   lut.data()};
        const char* where = guard_after ? "guard page after the codes"
                                        : "guard page before the codes";
        SCOPED_TRACE(::testing::Message() << width << "x" << height);
        expect_lut_of_every_cell<float>(backend, m, where);
        expect_lut_of_every_cell<Half>(backend, m, where);
      }
    }

    // Fewer than four cells hold no whole window: the kernel handles no
    // particle and leaves the map to the scalar reference.
    const GuardedBytes tiny(3, true);
    ASSERT_NE(tiny.data(), nullptr) << "mmap/mprotect failed";
    const kernels::LutMapView m{tiny.data(), 3, 1, 0.0, 0.0, 0.5, lut.data()};
    const std::vector<float> pos(8, 0.25f);
    std::vector<float> weight(8, 1.0f);
    EXPECT_EQ(kernels::observation_sweep(
                  backend, m, kernels::BeamSweepView{&kBeamAtOrigin, 1},
                  kernels::SweepSpansF32{pos.data(), pos.data(), pos.data(),
                                         weight.data()},
                  0, 8),
              0u);
    EXPECT_EQ(weight, std::vector<float>(8, 1.0f));
  }
}

}  // namespace
}  // namespace tofmcl::core
