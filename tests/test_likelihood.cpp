// Tests for the beam end-point observation likelihood (paper Eq. 1):
// mixture shape, monotonicity in the distance-map error, the quantized
// LUT path's agreement with the direct path, and out-of-map endpoint
// handling (rmax ⇒ least-informative factor, never zero).

#include "core/likelihood.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "map/distance_map.hpp"
#include "map/occupancy_grid.hpp"

namespace tofmcl::core {
namespace {

// A 1 m × 1 m free grid with a single occupied cell in the middle, so the
// EDT grows monotonically away from the center.
map::OccupancyGrid center_obstacle_grid() {
  map::OccupancyGrid grid(20, 20, 0.05, {0.0, 0.0}, map::CellState::kFree);
  grid.set({10, 10}, map::CellState::kOccupied);
  return grid;
}

TEST(BeamLikelihood, PeaksAtZeroDistance) {
  const BeamModelParams params;
  EXPECT_FLOAT_EQ(beam_likelihood(0.0f, params), params.z_hit + params.z_rand);
}

TEST(BeamLikelihood, MonotoneNonIncreasingWithDistance) {
  // Strictly decreasing while the Gaussian term is representable (≤ 5σ);
  // beyond that fp32 underflow saturates the factor at exactly z_rand, so
  // the tail is asserted non-increasing with the floor as its limit.
  const BeamModelParams params;
  float prev = beam_likelihood(0.0f, params);
  for (float d = 0.05f; d <= 0.5f; d += 0.05f) {
    const float cur = beam_likelihood(d, params);
    EXPECT_LT(cur, prev) << "d=" << d;
    prev = cur;
  }
  for (float d = 0.55f; d <= 1.5f; d += 0.05f) {
    const float cur = beam_likelihood(d, params);
    EXPECT_LE(cur, prev) << "d=" << d;
    EXPECT_GE(cur, params.z_rand) << "d=" << d;
    prev = cur;
  }
}

TEST(BeamLikelihood, FloorAbsorbsUnexplainedBeams) {
  // Far from any obstacle the Gaussian term vanishes but the z_rand floor
  // keeps the factor strictly positive — one outlier beam must never
  // annihilate a particle.
  const BeamModelParams params;
  const float far = beam_likelihood(10.0f, params);
  EXPECT_GT(far, 0.0f);
  EXPECT_NEAR(far, params.z_rand, 1e-6f);
}

TEST(BeamLikelihood, SharperSigmaDecaysFaster) {
  BeamModelParams sharp;
  sharp.sigma_obs = 0.05f;
  BeamModelParams flat;
  flat.sigma_obs = 0.5f;
  // Same mixture weights, same distance: the sharp model penalizes a
  // 0.2 m map mismatch much harder.
  EXPECT_LT(beam_likelihood(0.2f, sharp), beam_likelihood(0.2f, flat));
}

TEST(LikelihoodLut, MatchesDirectEvaluationAtCodePoints) {
  const BeamModelParams params;
  const float step = 1.5f / 255.0f;
  const LikelihoodLut lut(step, params);
  for (int code = 0; code <= 255; ++code) {
    const float d = static_cast<float>(code) * step;
    EXPECT_FLOAT_EQ(lut[static_cast<std::uint8_t>(code)],
                    beam_likelihood(d, params))
        << "code=" << code;
  }
}

TEST(LikelihoodLut, EvaluatedExactlyAtMapReconstruction) {
  // Bin-edge regression: the table must be evaluated at the value the
  // quantized map actually decodes a code to (its round-to-nearest bin
  // center, QuantizedDistanceMap::reconstruct) — BIT-exactly, not merely
  // within tolerance. A table built at any other point (e.g. a bin edge
  // of a misassumed floor quantizer) disagrees with distance_at() for
  // every nonzero code.
  const auto grid = center_obstacle_grid();
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  const BeamModelParams params;
  const LikelihoodLut lut(qmap.step(), params);
  for (int code = 0; code <= 255; ++code) {
    const auto c = static_cast<std::uint8_t>(code);
    EXPECT_EQ(lut[c], beam_likelihood(qmap.reconstruct(c), params))
        << "code=" << code;
  }
  // And through the model: the LUT path equals direct evaluation of the
  // map's dequantized distance at arbitrary query points, bit for bit.
  const LutObservationModel model(qmap, params);
  for (float x = -0.2f; x < 1.2f; x += 0.17f) {
    for (float y = -0.2f; y < 1.2f; y += 0.19f) {
      EXPECT_EQ(model.factor(x, y),
                beam_likelihood(qmap.distance_at({x, y}), params))
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(LikelihoodLut, RejectsInvalidParameters) {
  const BeamModelParams params;
  EXPECT_THROW(LikelihoodLut(0.0f, params), PreconditionError);
  BeamModelParams bad;
  bad.sigma_obs = 0.0f;
  EXPECT_THROW(LikelihoodLut(0.01f, bad), PreconditionError);
}

// ---- Short-return mixture properties -------------------------------------

/// Randomized mixture configurations for the property tests below. The
/// draws cover the regimes the campaigns sweep: sharp-to-flat sigma and
/// arbitrary (z_hit, z_rand, z_short) weights.
BeamModelParams random_params(Rng& rng) {
  BeamModelParams p;
  p.sigma_obs = static_cast<float>(rng.uniform(0.05, 0.5));
  p.z_hit = static_cast<float>(rng.uniform(0.1, 1.0));
  p.z_rand = static_cast<float>(rng.uniform(0.01, 0.5));
  p.z_short = static_cast<float>(rng.uniform(0.0, 0.8));
  return p;
}

TEST(BeamMixture, NormalizationBound) {
  // The mixture is bounded by its weights: every factor lies in
  // (0, z_hit + z_rand + z_short], with the supremum attained at
  // (distance = 0, range = 0). This is the bound the per-beam normalizer
  // in the observation kernel divides by.
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto p = random_params(rng);
    const float bound = p.z_hit + p.z_rand + p.z_short;
    for (int i = 0; i < 16; ++i) {
      const float d = static_cast<float>(rng.uniform(0.0, 2.0));
      const float z = static_cast<float>(rng.uniform(0.0, 4.0));
      const float f = beam_mixture_likelihood(d, z, p);
      EXPECT_GT(f, 0.0f) << "d=" << d << " z=" << z;
      EXPECT_LE(f, bound * (1.0f + 1e-6f)) << "d=" << d << " z=" << z;
    }
    EXPECT_FLOAT_EQ(beam_mixture_likelihood(0.0f, 0.0f, p), bound);
  }
}

TEST(BeamMixture, ShortComponentDecaysMonotonically) {
  // The short-return floor must decay strictly monotonically over the
  // measured range while representable, and never go negative: a closer
  // return is always the more plausible occluder.
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    BeamModelParams p = random_params(rng);
    p.z_short = static_cast<float>(rng.uniform(0.05, 0.8));
    float prev = short_return_floor(0.0f, p);
    EXPECT_FLOAT_EQ(prev, p.z_short);
    for (float z = 0.1f; z <= 4.0f; z += 0.1f) {
      const float cur = short_return_floor(z, p);
      EXPECT_GE(cur, 0.0f) << "z=" << z;
      EXPECT_LE(cur, prev) << "z=" << z;
      if (prev > 1e-30f) {
        EXPECT_LT(cur, prev) << "z=" << z;
      }
      prev = cur;
    }
  }
}

TEST(BeamMixture, ZeroShortWeightIsBitIdenticalToSeedModel) {
  // With z_short = 0 the mixture must reproduce the two-term model of
  // Eq. 1 EXACTLY — bit for bit, not within tolerance — whatever the
  // other parameters and the measured range. This is the property that
  // lets every pre-mixture golden bound stand.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    BeamModelParams p = random_params(rng);
    p.z_short = 0.0f;
    for (int i = 0; i < 16; ++i) {
      const float d = static_cast<float>(rng.uniform(0.0, 2.0));
      const float z = static_cast<float>(rng.uniform(0.0, 4.0));
      EXPECT_EQ(beam_mixture_likelihood(d, z, p),
                beam_likelihood(d, p))
          << "d=" << d << " z=" << z;
    }
  }
}

TEST(BeamMixture, LutAgreesWithDirectAcrossRandomConfigs) {
  // The LUT tables the map-distance part of the mixture; adding the
  // measured-range floor outside the table must agree with direct
  // evaluation within the likelihood change across one quantization step
  // (slope bound · step/2, as in the fixed-config test above), for
  // RANDOMIZED (z_hit, z_short, z_rand, sigma) configurations.
  const auto grid = center_obstacle_grid();
  const map::DistanceMap dmap(grid, 1.5);
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  Rng rng(31337);
  for (int trial = 0; trial < 25; ++trial) {
    const auto p = random_params(rng);
    const DirectObservationModel direct(dmap, p);
    const LutObservationModel lut(qmap, p);
    const float step = qmap.step();
    const float tol = p.z_hit / (p.sigma_obs * std::sqrt(std::exp(1.0f))) *
                      step * 0.5f * 1.05f;
    for (int i = 0; i < 32; ++i) {
      const float x = static_cast<float>(rng.uniform(0.0, 1.0));
      const float y = static_cast<float>(rng.uniform(0.0, 1.0));
      const float z = static_cast<float>(rng.uniform(0.0, 4.0));
      const float floor = short_return_floor(z, p);
      EXPECT_NEAR(lut.factor(x, y) + floor, direct.factor(x, y) + floor,
                  tol)
          << "(" << x << ", " << y << ") z=" << z;
      // And the composed mixture evaluated through the quantized map
      // equals the direct formula at the map's reconstructed distance,
      // bit for bit — the floor addition cannot disturb LUT exactness.
      EXPECT_EQ(lut.factor(x, y) + floor,
                beam_mixture_likelihood(qmap.distance_at({x, y}), z, p))
          << "(" << x << ", " << y << ") z=" << z;
    }
  }
}

TEST(BeamMixture, RejectsInvalidShortParameters) {
  BeamModelParams bad;
  bad.z_short = -0.1f;
  EXPECT_THROW(LikelihoodLut(0.01f, bad), PreconditionError);
}

TEST(DirectObservationModel, MonotoneInDistanceMapError) {
  // Factor at the obstacle cell must dominate, then fall monotonically as
  // the queried endpoint moves away — the property resampling relies on.
  const auto grid = center_obstacle_grid();
  const map::DistanceMap dmap(grid, 1.5);
  const DirectObservationModel model(dmap, {});

  const float cx = 0.525f, cy = 0.525f;  // Center of the occupied cell.
  float prev = model.factor(cx, cy);
  for (int i = 1; i <= 8; ++i) {
    const float cur = model.factor(cx + 0.05f * static_cast<float>(i), cy);
    EXPECT_LE(cur, prev) << "offset cells=" << i;
    prev = cur;
  }
}

TEST(DirectObservationModel, OutOfMapEndpointIsLeastInformative) {
  // An endpoint outside the map reads EDT = rmax: the factor equals the
  // in-map factor at full truncation distance (≈ z_rand), is positive,
  // and cannot beat any in-map endpoint nearer to an obstacle.
  const auto grid = center_obstacle_grid();
  const map::DistanceMap dmap(grid, 1.5);
  const BeamModelParams params;
  const DirectObservationModel model(dmap, params);

  const float outside = model.factor(50.0f, -50.0f);
  EXPECT_FLOAT_EQ(outside, beam_likelihood(dmap.rmax(), params));
  EXPECT_GT(outside, 0.0f);
  EXPECT_LE(outside, model.factor(0.525f, 0.525f));
}

TEST(LutObservationModel, AgreesWithDirectModelWithinQuantization) {
  // The quantized path may differ from the direct path only by the
  // likelihood change across one quantization step (≈ 2.9 mm of distance)
  // — the paper's "no accuracy loss" claim at unit-test granularity.
  const auto grid = center_obstacle_grid();
  const map::DistanceMap dmap(grid, 1.5);
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  const BeamModelParams params;
  const DirectObservationModel direct(dmap, params);
  const LutObservationModel lut(qmap, params);

  // Worst-case likelihood slope: |dL/dd| ≤ z_hit/(σ√e), and round-to-
  // nearest quantization moves the distance by at most step/2, so the
  // tight bound is slope · step/2 (plus 5 % float-rounding headroom) —
  // half the historical bound, now that the LUT provably evaluates at the
  // map's reconstruction values.
  const float step = qmap.step();
  const float tol = params.z_hit /
                    (params.sigma_obs * std::sqrt(std::exp(1.0f))) * step *
                    0.5f * 1.05f;
  for (float x = 0.0f; x < 1.0f; x += 0.11f) {
    for (float y = 0.0f; y < 1.0f; y += 0.13f) {
      EXPECT_NEAR(lut.factor(x, y), direct.factor(x, y), tol)
          << "(" << x << ", " << y << ")";
    }
  }
}

TEST(LutObservationModel, OutOfMapEndpointUsesTruncationCode) {
  const auto grid = center_obstacle_grid();
  const map::QuantizedDistanceMap qmap(grid, 1.5);
  const BeamModelParams params;
  const LutObservationModel model(qmap, params);
  const LikelihoodLut lut(qmap.step(), params);
  EXPECT_FLOAT_EQ(model.factor(-10.0f, 10.0f), lut[255]);
  EXPECT_GT(model.factor(-10.0f, 10.0f), 0.0f);
}

}  // namespace
}  // namespace tofmcl::core
