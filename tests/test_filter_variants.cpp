// Typed tests: invariants that must hold for EVERY precision variant of
// the particle filter (fp32, fp32qm, fp16qm). Each test runs three times,
// once per instantiation — the cheap way to keep the variants honest as
// the filter evolves.

#include <gtest/gtest.h>

#include <cmath>

#include "core/particle_filter.hpp"
#include "map/rasterize.hpp"

namespace tofmcl::core {
namespace {

using sensor::Beam;

map::OccupancyGrid shared_grid() {
  map::World w;
  w.add_rectangle({{0.0, 0.0}, {4.0, 4.0}});
  w.add_segment({2.0, 0.0}, {2.0, 2.5});
  w.add_rectangle({{3.2, 3.2}, {3.5, 3.5}});
  map::RasterizeOptions opt;
  opt.resolution = 0.05;
  return map::rasterize(w, opt);
}

Beam beam_at(double azimuth, double range) {
  Beam b;
  b.azimuth_body = azimuth;
  b.range_m = static_cast<float>(range);
  b.endpoint_body = Vec2f{static_cast<float>(range * std::cos(azimuth)),
                          static_cast<float>(range * std::sin(azimuth))};
  return b;
}

template <typename Traits>
class FilterVariant : public ::testing::Test {
 protected:
  FilterVariant()
      : grid_(shared_grid()), map_(grid_, 1.5) {}

  MclConfig config(std::size_t n) const {
    MclConfig cfg;
    cfg.num_particles = n;
    cfg.seed = 99;
    return cfg;
  }

  map::OccupancyGrid grid_;
  typename Traits::Map map_;
  SerialExecutor exec_;
};

using AllTraits = ::testing::Types<Fp32Traits, Fp32QmTraits, Fp16QmTraits>;
TYPED_TEST_SUITE(FilterVariants, AllTraits);

template <typename Traits>
using FilterVariants = FilterVariant<Traits>;

TYPED_TEST(FilterVariants, ParticleCountInvariant) {
  ParticleFilter<TypeParam> pf(this->map_, this->config(333), this->exec_);
  pf.init_uniform(this->grid_.free_cell_centers(), 0.025);
  const std::array<Beam, 4> beams{beam_at(0, 1), beam_at(1, 1),
                                  beam_at(-1, 1), beam_at(3, 1)};
  for (int i = 0; i < 10; ++i) {
    pf.update(Pose2{0.11, 0.0, 0.02}, beams);
    EXPECT_EQ(pf.soa().size(), 333u);
  }
}

TYPED_TEST(FilterVariants, WeightsFiniteAndNonNegative) {
  ParticleFilter<TypeParam> pf(this->map_, this->config(256), this->exec_);
  pf.init_uniform(this->grid_.free_cell_centers(), 0.025);
  const std::array<Beam, 16> beams = [] {
    std::array<Beam, 16> out;
    for (int i = 0; i < 16; ++i) {
      out[static_cast<std::size_t>(i)] = beam_at(-0.3 + 0.04 * i, 1.0);
    }
    return out;
  }();
  for (int round = 0; round < 30; ++round) {
    pf.motion_update(Pose2{0.12, 0.0, 0.03});
    pf.observation_update(beams);
    for (const auto weight : pf.soa().weight) {
      const float w = static_cast<float>(weight);
      EXPECT_TRUE(std::isfinite(w));
      EXPECT_GE(w, 0.0f);
    }
    pf.resample();
  }
}

TYPED_TEST(FilterVariants, PosesStayInsideReasonableBounds) {
  // Diffusion + resampling must not fling particles to infinity; with
  // observations anchoring them they stay near the map.
  ParticleFilter<TypeParam> pf(this->map_, this->config(512), this->exec_);
  pf.init_uniform(this->grid_.free_cell_centers(), 0.025);
  const std::array<Beam, 8> beams = [] {
    std::array<Beam, 8> out;
    for (int i = 0; i < 8; ++i) {
      out[static_cast<std::size_t>(i)] = beam_at(-0.3 + 0.09 * i, 0.9);
    }
    return out;
  }();
  for (int round = 0; round < 40; ++round) {
    pf.update(Pose2{0.1, 0.0, 0.05}, beams);
  }
  const auto& soa = pf.soa();
  for (std::size_t i = 0; i < soa.size(); ++i) {
    EXPECT_GT(static_cast<float>(soa.x[i]), -3.0f);
    EXPECT_LT(static_cast<float>(soa.x[i]), 7.0f);
    EXPECT_GT(static_cast<float>(soa.y[i]), -3.0f);
    EXPECT_LT(static_cast<float>(soa.y[i]), 7.0f);
    EXPECT_LE(std::abs(static_cast<float>(soa.yaw[i])),
              static_cast<float>(kPi) + 0.01f);
  }
}

TYPED_TEST(FilterVariants, DeterministicForSeed) {
  const auto run = [&]() {
    ParticleFilter<TypeParam> pf(this->map_, this->config(128), this->exec_);
    pf.init_uniform(this->grid_.free_cell_centers(), 0.025);
    const std::array<Beam, 2> beams{beam_at(0, 1.2), beam_at(kPi, 0.7)};
    for (int i = 0; i < 5; ++i) pf.update(Pose2{0.1, 0.01, 0.02}, beams);
    return pf.compute_pose();
  };
  const PoseEstimate a = run();
  const PoseEstimate b = run();
  EXPECT_EQ(a.pose.x(), b.pose.x());
  EXPECT_EQ(a.pose.y(), b.pose.y());
  EXPECT_EQ(a.pose.yaw, b.pose.yaw);
  EXPECT_EQ(a.position_stddev, b.position_stddev);
}

TYPED_TEST(FilterVariants, EstimateValidAfterFirstPose) {
  ParticleFilter<TypeParam> pf(this->map_, this->config(64), this->exec_);
  EXPECT_FALSE(pf.estimate().valid);
  pf.init_gaussian({1.0, 1.0, 0.0}, 0.05, 0.05);
  EXPECT_FALSE(pf.estimate().valid);  // init invalidates
  const PoseEstimate est = pf.compute_pose();
  EXPECT_TRUE(est.valid);
  EXPECT_TRUE(pf.estimate().valid);
  EXPECT_TRUE(std::isfinite(est.pose.x()));
}

TYPED_TEST(FilterVariants, TrackingImprovesWithObservations) {
  // From a coarse prior around the true pose, observations should shrink
  // the cloud and keep the mean near truth — for every variant.
  const Pose2 truth{1.0, 1.0, 0.0};
  ParticleFilter<TypeParam> pf(this->map_, this->config(2048), this->exec_);
  pf.init_gaussian(truth, 0.3, 0.3);
  // Beams consistent with the truth pose: wall x=2 is 1 m ahead; the
  // outer walls are 1 m below and 1 m to the left.
  const std::array<Beam, 3> beams{beam_at(0.0, 1.0),
                                  beam_at(-kPi / 2.0, 1.0),
                                  beam_at(kPi, 1.0)};
  const double before = pf.compute_pose().position_stddev;
  for (int i = 0; i < 6; ++i) pf.update(Pose2{}, beams);
  const PoseEstimate est = pf.compute_pose();
  EXPECT_LT(est.position_stddev, before);
  EXPECT_NEAR(est.pose.x(), truth.x(), 0.25);
  EXPECT_NEAR(est.pose.y(), truth.y(), 0.25);
}

}  // namespace
}  // namespace tofmcl::core
