#pragma once
/// \file filter_state.hpp
/// \brief The compact, relocatable half of the Localizer split.
///
/// A particle filter is two very different kinds of state glued together:
///
///   * the SCORING CONTEXT — distance maps, likelihood LUT, beam geometry,
///     resolved configuration. Megabytes, read-only after construction,
///     identical for every session localizing on the same map. One copy,
///     pointer-shared (see scoring_context.hpp).
///   * the FILTER STATE — the particle cloud, its double buffer, the
///     per-chunk RNG streams, the pose estimate and the Augmented-MCL
///     recovery monitor. Kilobytes, mutated every correction, unique per
///     session.
///
/// This header defines the second half as a plain aggregate that owns no
/// map data and references nothing: it can be moved, pooled (the particle
/// blocks come from a per-map ParticleArena) and serialized byte-for-byte
/// (ParticleFilter::save_state / load_state), which is what makes session
/// eviction and snapshot/restore possible in the serving layer.
///
/// The observation structs (PoseEstimate, UpdateWorkload, InjectionMonitor,
/// SweepBeam) live here rather than in particle_filter.hpp because they ARE
/// filter state — the filter template only operates on them.

#include <array>
#include <cstddef>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "core/particle_soa.hpp"

namespace tofmcl::core {

/// Upper bound on the logical chunk count (work distribution and RNG
/// streams); the prefix-sum scratch is statically sized by it.
inline constexpr std::size_t kMaxChunks = 64;

/// Filter output: the weighted-average pose plus dispersion measures used
/// for convergence monitoring.
struct PoseEstimate {
  Pose2 pose{};
  /// √(weighted variance of position), meters — small once converged.
  double position_stddev = 0.0;
  /// Length of the mean yaw resultant in [0, 1]; 1 = all particles agree.
  double yaw_concentration = 0.0;
  bool valid = false;
};

/// Workload of the most recent update cycle (consumed by the GAP9 timing
/// model and the benches).
struct UpdateWorkload {
  std::size_t particles = 0;
  std::size_t beams = 0;
  /// Beams the novelty gate excluded from the weight product (and with it
  /// the Augmented-MCL monitor) this update. Always 0 with gating off.
  std::size_t gated_beams = 0;
  /// Whether the novelty gate was armed for this update (estimate valid
  /// and tight enough) — diagnostics for tuning the arming criterion.
  bool novelty_armed = false;
};

/// State of the Augmented-MCL likelihood monitor (Probabilistic Robotics
/// §8.3), exposed for diagnostics and regression tests. Averages are of
/// the per-beam-normalized observation likelihood, so they are comparable
/// across beam counts and stay finite for arbitrarily many beams.
struct InjectionMonitor {
  double w_slow = 0.0;         ///< Long-term average likelihood.
  double w_fast = 0.0;         ///< Short-term average likelihood.
  double last_inject_p = 0.0;  ///< Injection fraction of the last resample.
};

/// One beam as the observation kernels see it, computed once per update:
/// the body-frame end point plus its mixture state. Novelty-gated beams
/// never enter the sweep array.
struct SweepBeam {
  Vec2f endpoint_body;
  float floor = 0.0f;  ///< Short-return floor added to every factor.
  float scale = 1.0f;  ///< 1 / (z_hit + z_rand + floor).
};

/// Everything a running filter mutates, in one relocatable aggregate.
///
/// Serialization contract (ParticleFilter::save_state): `particles`,
/// `rngs` + `resample_rng`, `estimate`, `monitor` and `blind_streak` are
/// the persistent state; everything else is scratch that the next update
/// fully rewrites (`back_buffer` is repartitioned by every resample,
/// `sweep_beams`/chunk sums are per-update) or bookkeeping of the storage
/// itself (`block_capacity`) and is deliberately NOT serialized.
template <typename Scalar>
struct FilterState {
  ParticleSoA<Scalar> particles;
  ParticleSoA<Scalar> back_buffer;
  /// Arena size class both blocks were acquired with; 0 when the blocks
  /// are plain heap vectors (no arena).
  std::size_t block_capacity = 0;

  std::vector<Rng> rngs;    ///< One stream per chunk.
  Rng resample_rng{0};      ///< Spins the systematic wheel.

  PoseEstimate estimate;
  UpdateWorkload workload;
  InjectionMonitor monitor;
  /// Consecutive corrections in which the gate excluded EVERY beam.
  std::size_t blind_streak = 0;

  /// Scratch: the current update's non-gated beams, in input order.
  std::vector<SweepBeam> sweep_beams;
  /// Scratch: per-chunk weight sums of the current resample.
  std::vector<double> chunk_sums;
  std::vector<double> chunk_sq_sums;
  std::array<double, kMaxChunks> chunk_prefix{};
  /// Scratch: packed occupancy-bin keys of the KLD adaptation pass.
  std::vector<std::int64_t> kld_keys;
};

}  // namespace tofmcl::core
