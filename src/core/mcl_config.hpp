#pragma once
/// \file mcl_config.hpp
/// \brief Configuration of the Monte Carlo localization filter.
///
/// Defaults are the paper's evaluation parameters (Section IV-A):
/// σ_odom = (0.1 m, 0.1 m, 0.1 rad), σ_obs = 2.0, rmax = 1.5 m,
/// dxy = 0.1 m, dθ = 0.1 rad, map resolution 0.05 m.

#include <cstddef>
#include <cstdint>

namespace tofmcl::core {

/// Numeric/map representation variants evaluated in the paper (Fig 6/7).
enum class Precision : std::uint8_t {
  kFp32,    ///< float particles + float EDT (5 B/cell, 32 B/particle).
  kFp32Qm,  ///< float particles + 8-bit quantized EDT (2 B/cell).
  kFp16Qm,  ///< fp16 particles + 8-bit quantized EDT (16 B/particle).
};

const char* to_string(Precision p);

/// Augmented-MCL recovery tuning (see MclConfig::enable_injection).
/// Long-term likelihood decay.
inline constexpr double kInjectionAlphaSlow = 0.05;
/// Short-term likelihood decay.
inline constexpr double kInjectionAlphaFast = 0.5;
/// Cap on the injected share.
inline constexpr double kInjectionMaxFraction = 0.05;

/// KLD bound (see MclConfig::adaptive_particles):
/// P(K(p̂‖p) ≤ ε) ≥ quantile(kKldZ). ε = 0.05 and z = 2.326 (99 %) are the
/// values from Fox's evaluation.
inline constexpr double kKldEpsilon = 0.05;
inline constexpr double kKldZ = 2.326;
/// Histogram bin sizes defining "occupied bins" k for the bound.
inline constexpr double kKldBinXy = 0.5;
inline constexpr double kKldBinYaw = 3.14159265358979323846 / 6.0;

/// Decay rate λ (1/m) of the short-return mixture component (see
/// MclConfig::z_short).
inline constexpr double kLambdaShort = 1.0;

/// Novelty-gate margin (m, see MclConfig::enable_novelty_gating): a beam
/// is gated when no mapped surface lies within measured range + margin
/// along the ray. The margin absorbs estimate error, sensor noise and map
/// error.
inline constexpr double kNoveltyMargin = 0.5;

/// Novelty-gate fail-safe (see MclConfig::enable_novelty_gating) against
/// total-occlusion deadlock: an update whose EVERY beam gates carries no
/// evidence, so the monitor cannot dive and the (possibly stale) estimate
/// stays concentrated — which would keep the gate armed forever, masking
/// a kidnapping toward NEARER surfaces (every beam shorter than the stale
/// expectation). After this many consecutive fully-gated corrections the
/// gate stands down for the update, letting the raw evidence reach the
/// weights and the monitor: a transient total occlusion costs a few
/// floored corrections, a real teleport collapses w_fast and triggers
/// recovery injection.
inline constexpr std::size_t kNoveltyMaxBlindUpdates = 5;
/// Novelty-gate arming criterion: yaw_concentration of the estimate must
/// reach this. The yaw resultant length is deliberately used instead of
/// position_stddev: recovery injection keeps a few percent of uniform
/// redraws in the cloud at all times, which inflates the position
/// variance far above any useful threshold (a 5 % uniform tail over a
/// 9 m map adds ≈ 0.6 m of stddev) while shaving only that few percent
/// off the resultant — concentration separates "tracking with a
/// recovery tail" from "dispersed" where stddev cannot.
inline constexpr double kNoveltyMinConcentration = 0.85;

struct MclConfig {
  std::size_t num_particles = 4096;

  /// Odometry noise σ_odom: standard deviation of the Gaussian sampled on
  /// top of the measured motion delta, in the body frame (x, y in meters,
  /// yaw in radians). With motion-scaled noise (default) this is the
  /// diffusion accrued per gate interval (dxy of travel / dθ of rotation).
  double sigma_odom_xy = 0.2;
  double sigma_odom_yaw = 0.2;

  /// When true (default), the per-update noise is scaled by
  /// √(motion/gate) so diffusion accrues per distance traveled instead of
  /// per update — rate-independent, and a hovering drone does not
  /// diffuse. False applies σ_odom verbatim at every motion update, the
  /// literal reading of the paper's σ_odom = (0.1, 0.1, 0.1); it behaves
  /// similarly at cruise speed but inflates the cloud whenever the drone
  /// slows down (compare with bench_ablation).
  bool scale_noise_with_motion = true;

  /// Observation model σ_obs of Eq. 1. The paper reports σ_obs = 2.0; with
  /// the EDT expressed in 0.05 m cells that is 0.1 m, which is the sharp
  /// regime required for the reported 0.15 m ATE (a 2.0 m Gaussian is too
  /// flat to counteract σ_odom diffusion — verified experimentally).
  double sigma_obs = 0.1;

  /// Mixture weights of the beam end-point model (paper reference [20]):
  /// likelihood = z_hit·exp(−d²/2σ²) + z_rand + z_short·exp(−λ·z), with
  /// λ = kLambdaShort. The z_rand floor absorbs unexplained beams
  /// (interference, map error, dynamics).
  double z_hit = 0.9;
  double z_rand = 0.1;

  /// Weight of the short-return outlier component: un-mapped occluders
  /// (people, carts) return in front of the expected surface, more likely
  /// the closer they are — an exponential decay over the MEASURED range z.
  /// The default 0 reproduces the two-term paper model bit for bit. Enable
  /// (≈ 0.3–0.6) for dynamic-obstacle regimes: a short return's mismatch
  /// penalty is softened instead of being paid at the flat z_rand floor.
  double z_short = 0.0;

  /// Per-beam novelty gating (floor-plan localization under dynamics,
  /// Zimmerman et al., arXiv:2310.12536): once the filter tracks
  /// confidently, beams whose measured range is SHORTER than any mapped
  /// surface along the beam from the estimated pose (by more than
  /// kNoveltyMargin) are un-mapped occluders; they are excluded from the
  /// weight product and therefore from the Augmented-MCL likelihood
  /// monitor, so a standing crowd or a pedestrian pacing the drone cannot
  /// trigger an injection storm. Gating arms only while the estimate is valid and
  /// concentrated (kNoveltyMinConcentration) — a global-localization cloud
  /// has no trustworthy expected ranges to gate against.
  bool enable_novelty_gating = false;

  /// EDT truncation radius (must match the distance map's rmax).
  double rmax = 1.5;

  /// Update gating: the observation, resampling and pose phases run only
  /// after the odometry reports at least this much motion since the last
  /// correction (paper: dxy = 0.1 m, dθ = 0.1 rad; Section III-C2). The
  /// motion model is NOT gated: it is sampled on every frame tick (σ_odom
  /// per tick as scale_noise_with_motion says). That per-tick diffusion
  /// is load-bearing: sampling motion only when the gate passes broke the
  /// warehouse_stale_heavy scenario's ATE bound and a stale-map
  /// success-rate gate.
  double gate_dxy = 0.1;
  double gate_dtheta = 0.1;

  /// Augmented-MCL recovery (Probabilistic Robotics §8.3, the same
  /// foundation the paper cites for its observation model): during
  /// resampling a fraction of particles is replaced by uniform draws from
  /// the map's free space when the short-term average likelihood w_fast
  /// falls below the long-term average w_slow — the signature of a filter
  /// locked onto a wrong mode. This is what lets the estimate leave a
  /// wrong maze (paper Fig 1) instead of staying committed forever.
  bool enable_injection = true;

  /// Adaptive particle counts (KLD-sampling, Fox 2001): after each real
  /// resampling draw the filter re-sizes its particle set to the KLD bound
  /// for the currently occupied (x, y, yaw) bins — a converged tracker
  /// shrinks to hundreds of particles, and a recovery injection (kidnap
  /// signature) snaps the budget straight back to num_particles. Counts
  /// move in arena size classes (powers of two) between min_particles and
  /// num_particles; shrinking is limited to one class per correction.
  /// Default OFF: fixed-count mode is the bit-identical determinism
  /// reference (num_particles everywhere, exactly the pre-adaptive
  /// arithmetic).
  bool adaptive_particles = false;
  /// Floor of the adaptive budget. Also the count a single-bin (fully
  /// converged) cloud settles at.
  std::size_t min_particles = 128;

  /// Master seed for all stochastic parts of the filter.
  std::uint64_t seed = 1;

  /// Logical chunk count for work distribution, mirroring the 8 worker
  /// cores of the GAP9 cluster. Results are bit-identical for a fixed
  /// chunk count regardless of how many host threads execute the chunks.
  std::size_t chunks = 8;
};

}  // namespace tofmcl::core
