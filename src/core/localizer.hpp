#pragma once
// TOFMCL_LINT_ALLOW_FILE(wall-clock): steady_clock appears only in the
// latency-accounting API (record_correction_time); it never feeds state.
/// \file localizer.hpp
/// \brief Runtime facade over the templated particle filter.
///
/// Runs on a shared ScoringContext (distance map, LUT and resolved config
/// for the selected precision), converts multizone ToF frames to beams,
/// applies the paper's asynchronous update gating (dxy / dθ, Section
/// III-C2) and dispatches to the right ParticleFilter instantiation. This
/// is the class an application integrates:
///
///     core::Localizer loc(grid, config, executor);
///     loc.start_global();
///     loc.on_odometry(ekf_pose);          // whenever odometry ticks
///     loc.on_frames(frames_at_same_t);    // whenever ToF frames arrive
///     const auto est = loc.estimate();
///
/// Campaigns and the serving layer run MANY localizers over one map: they
/// build the expensive read-only state once and share one context per
/// scoring configuration, so runs differ only in their SessionKnobs:
///
///     auto maps = core::build_map_resources(grid, cfg.mcl, precisions);
///     auto ctx = core::build_scoring_context(maps, cfg);
///     core::Localizer a(ctx, {seed_a, particles_a}, exec);
///     core::Localizer b(ctx, {seed_b, particles_b}, exec);
///
/// Concurrency contract: a Localizer is single-threaded BY CONTRACT — the
/// owner serializes every mutating call (on_odometry / on_frames /
/// start_*), though successive calls may land on different threads (the
/// serving layer's sessions hop pool workers between pumps).
/// The contract is ASSERTED: concurrent entry throws PreconditionError
/// via SerialGuard instead of silently racing the dropped-frames counter
/// or the injection-monitor state, and the guard's acquire/release pair
/// makes the serialized cross-thread pattern data-race-free.

#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <variant>
#include <vector>

#include "common/serial_guard.hpp"
#include "core/particle_filter.hpp"
#include "core/scoring_context.hpp"
#include "map/occupancy_grid.hpp"
#include "map/snapshot_io.hpp"
#include "sensor/beam_model.hpp"
#include "sensor/tof_sensor.hpp"

namespace tofmcl::core {

class Localizer {
 public:
  /// Builds a private context for `config` from the occupancy grid (see
  /// build_scoring_context). The grid itself is not retained.
  Localizer(const map::OccupancyGrid& grid, const LocalizerConfig& config,
            Executor& executor)
      : Localizer(build_scoring_context(grid, config),
                  {config.mcl.seed, config.mcl.num_particles}, executor) {}

  /// The shared ScoringContext supplies maps, LUT, resolved configuration
  /// and the particle arena the filter's SoA blocks are leased from; the
  /// knobs supply the only per-session degrees of freedom (seed, particle
  /// budget).
  Localizer(std::shared_ptr<const ScoringContext> ctx,
            const SessionKnobs& knobs, Executor& executor);

  /// Global localization: uniform over the grid's free cells.
  void start_global();
  /// Pose tracking: Gaussian cloud around a known map pose.
  void start_at(const Pose2& pose, double sigma_xy, double sigma_yaw);

  /// Feed the latest odometry-frame pose estimate (absolute in the
  /// odometry frame; only relative motion is used). A pose with a
  /// non-finite component is ignored; the previous one stays the anchor.
  void on_odometry(const Pose2& odometry_pose);

  /// Feed all ToF frames captured at one measurement instant. The motion
  /// model is sampled on every call (the paper's asynchronous scheme:
  /// "the motion model is sampled when odometry is available"), while the
  /// observation + resampling + pose phases run only once the drone has
  /// moved dxy or rotated dθ since the last correction. Returns true when
  /// the correction ran.
  ///
  /// Malformed frames — an unconfigured sensor_id, a zone-mode mismatch
  /// with the configured sensor, or a zone count inconsistent with the
  /// mode — are skipped and counted in dropped_frames() instead of
  /// aborting the flight loop: one corrupt radio packet must not ground
  /// the drone.
  bool on_frames(std::span<const sensor::TofFrame> frames);

  const PoseEstimate& estimate() const;
  Precision precision() const { return config_.precision; }
  const MclConfig& mcl_config() const { return config_.mcl; }
  std::size_t num_particles() const { return config_.mcl.num_particles; }
  /// Number of update cycles that actually ran (passed the gate).
  std::size_t updates_run() const { return updates_run_; }
  /// Frames rejected by on_frames() since construction.
  std::size_t dropped_frames() const { return dropped_frames_; }
  /// Wall-clock seconds of the most recent correction (the full on_frames
  /// pass that ran it: beam extraction + fused motion+observation +
  /// resample + pose). 0 before the first correction. The serving layer
  /// samples this after every correction to build its per-session latency
  /// distribution.
  double last_correction_seconds() const { return last_correction_s_; }
  /// Σ last_correction_seconds over all corrections (service-time
  /// accounting: corrections/s = updates_run / total_correction_seconds
  /// of busy time).
  double total_correction_seconds() const { return total_correction_s_; }
  /// Workload of the most recent correction (particles × beams, plus the
  /// novelty-gated beam count).
  const UpdateWorkload& workload() const;
  /// Augmented-MCL monitor state of the active filter (diagnostics and
  /// injection-storm regression tests).
  const InjectionMonitor& injection_monitor() const;

  /// Map memory of the active representation, bytes (Fig 9 accounting).
  std::size_t map_bytes() const;
  /// Particle memory including the double buffer at the CONFIGURED budget,
  /// bytes (Fig 9 accounting — independent of adaptive shrinkage).
  std::size_t particle_bytes() const;
  /// Active particle count right now (== num_particles unless
  /// MclConfig::adaptive_particles shrank/grew the set).
  std::size_t active_particles() const;
  /// Bytes the particle storage actually pins right now — both SoA blocks
  /// at their allocated capacity. The serving layer's per-session resident
  /// memory metric.
  std::size_t resident_particle_bytes() const;

  /// The context this localizer runs on; never null.
  const std::shared_ptr<const ScoringContext>& context() const {
    return ctx_;
  }

  /// Serializes the full mutable session state — odometry anchors,
  /// counters, and the filter's FilterState — as a versioned little-endian
  /// binary blob (raw IEEE bits, so restore resumes bit-identically).
  /// Shared state (maps, LUT, config) is NOT serialized: a snapshot is
  /// restored into a Localizer built from the same configuration.
  void save_snapshot(map::SnapshotWriter& writer) const;
  /// Restores what save_snapshot wrote. Throws common::IoError on a bad
  /// magic/version or truncated blob, PreconditionError when the snapshot
  /// was taken under a different precision/budget/chunks/seed than this
  /// localizer's.
  void load_snapshot(map::SnapshotReader& reader);

 private:
  using FilterVariant =
      std::variant<ParticleFilter<Fp32Traits>, ParticleFilter<Fp32QmTraits>,
                   ParticleFilter<Fp16QmTraits>>;

  /// Returns the filter instantiation matching the context's precision,
  /// scoring with the context's map (and LUT) and leasing its particle
  /// blocks from the context's arena.
  static FilterVariant make_filter(const ScoringContext& ctx,
                                   const MclConfig& mcl, Executor& executor);

  bool gate_passed(const Pose2& delta) const;
  /// Correction-timing hook: stamps last/total correction wall time from
  /// the t0 taken at the top of the on_frames call that ran it.
  void record_correction_time(std::chrono::steady_clock::time_point t0);
  /// Motion phase only, without touching the correction gate (used when a
  /// frame batch carried no usable frames).
  void step_motion_only();
  /// Runs the motion phase for odometry accrued since the last motion
  /// update, then the gated correction phases (motion and observation
  /// fused into one particle pass when the gate opens). Returns true if
  /// the correction ran.
  bool step_filter(std::span<const sensor::Beam> beams);

  /// The context's config with this localizer's knobs applied.
  LocalizerConfig config_;
  /// Declared before filter_: the filter points into the context's maps.
  std::shared_ptr<const ScoringContext> ctx_;
  FilterVariant filter_;

  std::optional<Pose2> current_odom_;
  std::optional<Pose2> last_motion_odom_;  ///< Odometry at last motion update.
  std::optional<Pose2> gate_odom_;         ///< Odometry at last correction.
  std::size_t updates_run_ = 0;
  std::size_t dropped_frames_ = 0;
  double last_correction_s_ = 0.0;
  double total_correction_s_ = 0.0;
  /// Asserts the single-threaded-by-contract usage (see file comment).
  SerialGuard serial_guard_;
};

}  // namespace tofmcl::core
