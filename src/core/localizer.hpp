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

#include <array>
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
  /// How many gated-out calls' odometry deltas on_frames queues; a call
  /// that finds the queue full applies it first (see on_frames).
  static constexpr std::size_t kMotionQueueCapacity = 16;

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
  /// model takes the odometry of every call (the paper's asynchronous
  /// scheme: "the motion model is sampled when odometry is available"),
  /// while the observation + resampling + pose phases run only once the
  /// drone has moved dxy or rotated dθ since the last correction. Returns
  /// true when the correction ran. The gate depends on odometry alone and
  /// is decided first: frames are turned into beams only when the
  /// correction runs.
  ///
  /// A gated-out call does not touch the particles: it appends its
  /// odometry delta to a fixed queue of kMotionQueueCapacity, so it costs
  /// the frame checks and no executor call. The next correction replays
  /// the queue inside its fused pass, chunk by chunk from each chunk's own
  /// stream, so particles, generators and traces are bit-identical to
  /// sampling the motion on every call. A correction makes three executor
  /// calls (ParticleFilter::update). The queue is also applied, in one
  /// executor call, by a gated-out call that finds it full, by
  /// start_global / start_at (their init draws follow the queued draws)
  /// and by save_snapshot; load_snapshot discards it.
  ///
  /// Malformed frames — an unconfigured sensor_id, a zone-mode mismatch
  /// with the configured sensor, or a zone count inconsistent with the
  /// mode — are skipped and counted in dropped_frames() on every call,
  /// corrected or not and with or without odometry, instead of aborting
  /// the flight loop: one corrupt radio packet must not ground the drone.
  /// A batch of only malformed frames queues its motion but leaves the
  /// gate armed.
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
  /// restored into a Localizer built from the same configuration. Queued
  /// motion is applied first (one executor call), so the blob holds no
  /// queue and is the one per-tick motion would have left.
  void save_snapshot(map::SnapshotWriter& writer);
  /// Bytes save_snapshot() writes, at most (to size a blob up front).
  std::size_t snapshot_bytes() const;
  /// Restores what save_snapshot wrote. Throws common::IoError on a bad
  /// magic/version, a truncated blob, a non-finite odometry anchor,
  /// estimate or monitor value or a negative or non-finite correction
  /// timing, PreconditionError when the snapshot was
  /// taken under a different precision/budget/chunks/seed than this
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
  /// Applies the queued motion in one executor call (none when the queue
  /// is empty) and empties the queue.
  void apply_queued_motion();
  /// The configured sensor a frame belongs to, or nullptr when the frame
  /// is malformed (unknown sensor id, mode mismatch, or a zone count that
  /// does not match its mode).
  const sensor::TofSensorConfig* frame_sensor(
      const sensor::TofFrame& frame) const;
  /// Correction-timing hook: stamps last/total correction wall time from
  /// the t0 taken at the top of the on_frames call that ran it.
  void record_correction_time(std::chrono::steady_clock::time_point t0);

  /// The context's config with this localizer's knobs applied.
  LocalizerConfig config_;
  /// Declared before filter_: the filter points into the context's maps.
  std::shared_ptr<const ScoringContext> ctx_;
  FilterVariant filter_;

  std::optional<Pose2> current_odom_;
  /// Odometry at the last tick whose motion was applied or queued.
  std::optional<Pose2> last_motion_odom_;
  std::optional<Pose2> gate_odom_;         ///< Odometry at last correction.
  /// Odometry deltas of the gated-out calls since the last correction,
  /// oldest first; the first queued_count_ entries are live.
  std::array<Pose2, kMotionQueueCapacity> queued_motion_{};
  std::size_t queued_count_ = 0;
  std::size_t updates_run_ = 0;
  std::size_t dropped_frames_ = 0;
  double last_correction_s_ = 0.0;
  double total_correction_s_ = 0.0;
  /// Asserts the single-threaded-by-contract usage (see file comment).
  SerialGuard serial_guard_;
};

}  // namespace tofmcl::core
