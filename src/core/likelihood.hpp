#pragma once
/// \file likelihood.hpp
/// \brief Beam end-point observation likelihoods (paper Eq. 1).
///
/// p(z|x, m) ∝ z_hit · exp(−EDT(ẑ)² / (2 σ_obs²)) + z_rand, where ẑ is the
/// measured beam end point transformed by the particle pose and EDT is the
/// truncated distance field. The Gaussian normalizer 1/√(2πσ²) is constant
/// across particles and cancels in weight normalization, so it is omitted.
///
/// The additive z_rand floor comes from the beam end-point model of the
/// paper's reference [20] (Thrun et al., Probabilistic Robotics): it
/// accounts for unexplained measurements — interference, dynamic objects,
/// map error — and is what keeps a correct hypothesis alive when a few
/// beams are outliers. Without it a single bad beam can annihilate the
/// true mode.
///
/// The full mixture adds the classic SHORT-RETURN outlier component of the
/// beam model (Probabilistic Robotics §6.3; the regime stressed by
/// depth-based dynamic-obstacle work, Müller et al., arXiv:2208.12624):
///
///   p(z|x, m) ∝ z_hit · exp(−EDT(ẑ)²/2σ²) + z_rand + z_short · exp(−λ·z)
///
/// where z is the MEASURED range. Un-mapped occluders (people, carts)
/// produce returns in front of the expected surface, and they are more
/// probable the closer they are — an exponential decay over the measured
/// range. Because the component depends on the measurement only, it is a
/// per-beam constant across particles: one add outside the per-particle
/// table/exp path, so the LUT below keeps covering the map-distance part
/// unchanged. With z_short = 0 the mixture is bit-identical to Eq. 1.
///
/// Two evaluation paths exist, matching the paper's map representations:
///  * direct: float distance → expf (fp32 map)
///  * LUT: 8-bit quantized distance code → 256-entry table (quantized map).
///    The table folds dequantization AND the exponential into one load,
///    which is both the memory win and a speed win on the target.

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "core/mcl_config.hpp"
#include "map/distance_map.hpp"

namespace tofmcl::core {

/// Mixture parameters of the beam end-point likelihood.
struct BeamModelParams {
  float sigma_obs = 0.1f;  ///< Gaussian width (meters).
  float z_hit = 0.9f;      ///< Weight of the Gaussian hit component.
  float z_rand = 0.1f;     ///< Uniform floor for unexplained returns.
  /// Weight of the short-return outlier component (un-mapped occluders in
  /// front of the expected surface). 0 disables it — bit-identical to the
  /// two-term model of Eq. 1.
  float z_short = 0.0f;
};

/// The beam-model slice of an MclConfig — the ONE conversion every filter,
/// localizer and LUT build goes through, so a new mixture field cannot be
/// plumbed into some sites and silently defaulted in others.
inline BeamModelParams beam_model_params(const MclConfig& mcl) {
  return BeamModelParams{static_cast<float>(mcl.sigma_obs),
                         static_cast<float>(mcl.z_hit),
                         static_cast<float>(mcl.z_rand),
                         static_cast<float>(mcl.z_short)};
}

/// Map-distance part of the mixture: the per-particle factor for a metric
/// distance-to-obstacle (meters) at the transformed beam end point.
inline float beam_likelihood(float distance, const BeamModelParams& params) {
  const float inv_two_sigma_sq =
      1.0f / (2.0f * params.sigma_obs * params.sigma_obs);
  return params.z_hit * std::exp(-distance * distance * inv_two_sigma_sq) +
         params.z_rand;
}

/// Short-return component: z_short · exp(−λ·z) of the MEASURED range z,
/// λ = kLambdaShort. Constant across particles for one beam — it raises
/// the floor of short returns (likely occluders) without touching the
/// map-distance part.
inline float short_return_floor(float range, const BeamModelParams& params) {
  if (params.z_short <= 0.0f) return 0.0f;
  constexpr float kLambda = static_cast<float>(kLambdaShort);
  return params.z_short * std::exp(-kLambda * range);
}

/// The full three-component mixture for one (map distance, measured range)
/// pair. Equals beam_likelihood(distance) bit for bit when z_short == 0.
inline float beam_mixture_likelihood(float distance, float range,
                                     const BeamModelParams& params) {
  return beam_likelihood(distance, params) +
         short_return_floor(range, params);
}

/// Precomputed per-code likelihoods for a quantized distance map.
///
/// Each entry is evaluated at the map's reconstruction value for that code
/// (QuantizedDistanceMap::reconstruct — the bin center under its
/// round-to-nearest rule), so `lut[code]` equals `beam_likelihood` of the
/// distance the map actually reports for that code, bit for bit. The
/// quantization rule lives in ONE place; the table cannot drift to a bin
/// edge if the map's rounding ever changes.
///
/// The table covers the MAP-DISTANCE part of the mixture only (hit + rand)
/// — the short-return component depends on the measured range, not the map
/// code, and is added per beam outside the table. One LikelihoodLut
/// therefore serves every z_short that shares its (sigma_obs, z_hit,
/// z_rand).
class LikelihoodLut {
 public:
  /// `step` is the meters-per-code of the quantized map.
  LikelihoodLut(float step, const BeamModelParams& params) {
    TOFMCL_EXPECTS(step > 0.0f, "quantization step must be positive");
    TOFMCL_EXPECTS(params.sigma_obs > 0.0f, "sigma_obs must be positive");
    TOFMCL_EXPECTS(params.z_short >= 0.0f, "z_short must be non-negative");
    for (std::size_t code = 0; code < table_.size(); ++code) {
      const float d = map::QuantizedDistanceMap::reconstruct(
          static_cast<std::uint8_t>(code), step);
      table_[code] = beam_likelihood(d, params);
    }
  }

  float operator[](std::uint8_t code) const { return table_[code]; }

  /// Raw 256-entry table, for the SIMD observation kernels
  /// (src/core/kernels/) which gather per-lane instead of calling
  /// operator[].
  const float* data() const { return table_.data(); }

 private:
  std::array<float, 256> table_{};
};

/// Observation-model policy for the full-precision map.
class DirectObservationModel {
 public:
  DirectObservationModel(const map::DistanceMap& map,
                         const BeamModelParams& params)
      : map_(&map), params_(params) {
    TOFMCL_EXPECTS(params.sigma_obs > 0.0f, "sigma_obs must be positive");
  }

  /// Likelihood factor of one transformed beam end point (world frame).
  float factor(float world_x, float world_y) const {
    const float d = map_->distance_at({world_x, world_y});
    return beam_likelihood(d, params_);
  }

 private:
  const map::DistanceMap* map_;
  BeamModelParams params_;
};

/// Observation-model policy for the quantized map: one table lookup per
/// beam, no transcendentals in the hot loop.
class LutObservationModel {
 public:
  LutObservationModel(const map::QuantizedDistanceMap& map,
                      const BeamModelParams& params)
      : map_(&map), lut_(map.step(), params) {}

  /// Shares a prebuilt table (copied — 1 KB) so evaluation campaigns pay
  /// the 256 transcendental evaluations once per map, not once per run.
  LutObservationModel(const map::QuantizedDistanceMap& map,
                      const LikelihoodLut& lut)
      : map_(&map), lut_(lut) {}

  float factor(float world_x, float world_y) const {
    return lut_[map_->code_at({world_x, world_y})];
  }

  /// Backing map / table, for the SIMD observation kernels
  /// (src/core/kernels/) which need the raw code array and LUT storage.
  const map::QuantizedDistanceMap& map() const { return *map_; }
  const LikelihoodLut& lut() const { return lut_; }

 private:
  const map::QuantizedDistanceMap* map_;
  LikelihoodLut lut_;
};

}  // namespace tofmcl::core
