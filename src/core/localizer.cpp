#include "core/localizer.hpp"
// TOFMCL_LINT_ALLOW_FILE(wall-clock): correction-latency self-timing only;
// steady_clock never feeds the filter state, so traces stay deterministic.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace tofmcl::core {

const char* to_string(Precision p) {
  switch (p) {
    case Precision::kFp32:
      return "fp32";
    case Precision::kFp32Qm:
      return "fp32qm";
    case Precision::kFp16Qm:
      return "fp16qm";
  }
  return "unknown";
}

namespace {

/// Context config + session knobs → the per-session LocalizerConfig.
LocalizerConfig session_config(const ScoringContext& ctx,
                               const SessionKnobs& knobs) {
  LocalizerConfig config = ctx.config();
  config.mcl.seed = knobs.seed;
  if (knobs.num_particles) config.mcl.num_particles = *knobs.num_particles;
  return config;
}

}  // namespace

Localizer::FilterVariant Localizer::make_filter(const ScoringContext& ctx,
                                                const MclConfig& mcl,
                                                Executor& executor) {
  // The ScoringContext constructor checked that the map (and LUT) for
  // this precision exist and match the config.
  const MapResources& maps = ctx.maps();
  switch (ctx.config().precision) {
    case Precision::kFp32:
      return FilterVariant(std::in_place_type<ParticleFilter<Fp32Traits>>,
                           *maps.float_map, mcl, executor, ctx.arena());
    case Precision::kFp32Qm:
      return FilterVariant(
          std::in_place_type<ParticleFilter<Fp32QmTraits>>,
          *maps.quantized_map, mcl, executor,
          LutObservationModel(*maps.quantized_map, *maps.lut), ctx.arena());
    case Precision::kFp16Qm:
      return FilterVariant(
          std::in_place_type<ParticleFilter<Fp16QmTraits>>,
          *maps.quantized_map, mcl, executor,
          LutObservationModel(*maps.quantized_map, *maps.lut), ctx.arena());
  }
  throw ConfigError("unknown precision variant");
}

Localizer::Localizer(std::shared_ptr<const ScoringContext> ctx,
                     const SessionKnobs& knobs, Executor& executor)
    : config_(session_config(*ctx, knobs)),
      ctx_(std::move(ctx)),
      filter_(make_filter(*ctx_, config_.mcl, executor)) {}

void Localizer::start_global() {
  SerialGuard::Scope serial(serial_guard_);
  apply_queued_motion();
  const MapResources& maps = ctx_->maps();
  std::visit(
      [&](auto& pf) { pf.init_uniform(maps.free_cells, maps.cell_jitter); },
      filter_);
  last_motion_odom_ = current_odom_;
  gate_odom_ = current_odom_;
  updates_run_ = 0;
}

void Localizer::start_at(const Pose2& pose, double sigma_xy,
                         double sigma_yaw) {
  SerialGuard::Scope serial(serial_guard_);
  apply_queued_motion();
  const MapResources& maps = ctx_->maps();
  std::visit(
      [&](auto& pf) {
        pf.init_gaussian(pose, sigma_xy, sigma_yaw);
        // Recovery injection works in tracking mode too: a kidnapped or
        // lost tracker can re-seed hypotheses across the free space.
        pf.set_injection_support(maps.free_cells, maps.cell_jitter);
      },
      filter_);
  last_motion_odom_ = current_odom_;
  gate_odom_ = current_odom_;
  updates_run_ = 0;
}

void Localizer::on_odometry(const Pose2& odometry_pose) {
  SerialGuard::Scope serial(serial_guard_);
  // A non-finite sample would turn the next motion delta, and with it
  // every particle, into NaN: drop it and keep the previous anchor.
  if (!std::isfinite(odometry_pose.x()) || !std::isfinite(odometry_pose.y()) ||
      !std::isfinite(odometry_pose.yaw)) {
    return;
  }
  current_odom_ = odometry_pose;
  if (!last_motion_odom_) last_motion_odom_ = odometry_pose;
  if (!gate_odom_) gate_odom_ = odometry_pose;
}

bool Localizer::gate_passed(const Pose2& delta) const {
  return delta.position.norm() >= config_.mcl.gate_dxy ||
         std::abs(delta.yaw) >= config_.mcl.gate_dtheta;
}

void Localizer::apply_queued_motion() {
  std::visit(
      [&](auto& pf) {
        pf.motion_update(std::span(queued_motion_).first(queued_count_));
      },
      filter_);
  queued_count_ = 0;
}

const sensor::TofSensorConfig* Localizer::frame_sensor(
    const sensor::TofFrame& frame) const {
  const auto it = std::find_if(
      config_.sensors.begin(), config_.sensors.end(),
      [&](const sensor::TofSensorConfig& s) {
        return s.sensor_id == frame.sensor_id;
      });
  const auto zones_expected = static_cast<std::size_t>(frame.side()) *
                              static_cast<std::size_t>(frame.side());
  if (it == config_.sensors.end() || frame.mode != it->mode ||
      frame.zones.size() != zones_expected) {
    return nullptr;
  }
  return &*it;
}

bool Localizer::on_frames(std::span<const sensor::TofFrame> frames) {
  SerialGuard::Scope serial(serial_guard_);

  // Malformed frames are dropped, not fatal: an unconfigured sensor id,
  // a mode differing from the configured sensor, or a zone payload that
  // does not match the advertised mode. The rest of the batch (and the
  // flight loop) continues. They are counted whether or not the
  // correction runs, and before any odometry has arrived.
  std::size_t usable = 0;
  for (const sensor::TofFrame& frame : frames) {
    if (frame_sensor(frame) != nullptr) {
      ++usable;
    } else {
      ++dropped_frames_;
    }
  }
  if (!current_odom_ || !last_motion_odom_) return false;

  // Motion phase on every tick: the proposal takes the odometry accrued
  // since the last motion update. The σ_odom noise injected at the frame
  // rate is what maintains particle diversity.
  const Pose2 motion_delta = last_motion_odom_->between(*current_odom_);
  last_motion_odom_ = current_odom_;

  // Correction phases only after enough motion (paper's dxy/dθ gate). The
  // gate depends on odometry alone, so it is decided before any beam is
  // extracted: a gated-out tick only queues its motion, which the next
  // correction's fused pass replays. A batch whose every frame was
  // malformed must not consume the gate either, so the next VALID frame
  // still gets its correction. A usable frame with zero extractable beams
  // still steps the full filter — that is real (if uninformative) sensor
  // data.
  const bool all_malformed = !frames.empty() && usable == 0;
  if (all_malformed || !gate_passed(gate_odom_->between(*current_odom_))) {
    if (queued_count_ == kMotionQueueCapacity) apply_queued_motion();
    queued_motion_[queued_count_++] = motion_delta;
    return false;
  }

  // Only a correction is timed, so a gated tick reads no clock.
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<sensor::Beam> beams;
  for (const sensor::TofFrame& frame : frames) {
    if (const sensor::TofSensorConfig* s = frame_sensor(frame)) {
      const auto frame_beams =
          sensor::extract_beams(frame, *s, config_.extraction);
      beams.insert(beams.end(), frame_beams.begin(), frame_beams.end());
    }
  }
  // The queued motion, this tick's motion and the observation in one
  // fused pass over the particle state, then the draw and the pose.
  std::visit(
      [&](auto& pf) {
        pf.update(std::span(queued_motion_).first(queued_count_),
                  motion_delta, beams);
        // KLD adaptation of the active count; no-op in fixed-count mode.
        pf.adapt_particle_count();
      },
      filter_);
  queued_count_ = 0;
  gate_odom_ = current_odom_;
  ++updates_run_;
  record_correction_time(t0);
  return true;
}

void Localizer::record_correction_time(
    std::chrono::steady_clock::time_point t0) {
  last_correction_s_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  total_correction_s_ += last_correction_s_;
}

const PoseEstimate& Localizer::estimate() const {
  return std::visit(
      [](const auto& pf) -> const PoseEstimate& { return pf.estimate(); },
      filter_);
}

const UpdateWorkload& Localizer::workload() const {
  return std::visit(
      [](const auto& pf) -> const UpdateWorkload& { return pf.workload(); },
      filter_);
}

const InjectionMonitor& Localizer::injection_monitor() const {
  return std::visit(
      [](const auto& pf) -> const InjectionMonitor& {
        return pf.injection_monitor();
      },
      filter_);
}

std::size_t Localizer::map_bytes() const {
  const MapResources& maps = ctx_->maps();
  switch (config_.precision) {
    case Precision::kFp32:
      return static_cast<std::size_t>(maps.float_map->width()) *
             static_cast<std::size_t>(maps.float_map->height()) *
             map::DistanceMap::bytes_per_cell();
    case Precision::kFp32Qm:
    case Precision::kFp16Qm:
      return static_cast<std::size_t>(maps.quantized_map->width()) *
             static_cast<std::size_t>(maps.quantized_map->height()) *
             map::QuantizedDistanceMap::bytes_per_cell();
  }
  return 0;
}

std::size_t Localizer::particle_bytes() const {
  switch (config_.precision) {
    case Precision::kFp32:
    case Precision::kFp32Qm:
      return particle_buffer_bytes<float>(config_.mcl.num_particles);
    case Precision::kFp16Qm:
      return particle_buffer_bytes<Half>(config_.mcl.num_particles);
  }
  return 0;
}

std::size_t Localizer::active_particles() const {
  return std::visit([](const auto& pf) { return pf.size(); }, filter_);
}

std::size_t Localizer::resident_particle_bytes() const {
  return std::visit([](const auto& pf) { return pf.resident_bytes(); },
                    filter_);
}

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x544F464Du;  // "TOFM"
constexpr std::uint16_t kSnapshotVersion = 1;

}  // namespace

void Localizer::save_snapshot(map::SnapshotWriter& writer) {
  SerialGuard::Scope serial(serial_guard_);
  apply_queued_motion();
  writer.u32(kSnapshotMagic);
  writer.u16(kSnapshotVersion);
  writer.u8(static_cast<std::uint8_t>(config_.precision));
  writer.u64(config_.mcl.num_particles);
  writer.u64(config_.mcl.chunks);
  writer.u64(config_.mcl.seed);
  std::uint8_t flags = 0;
  if (current_odom_) flags |= 1u;
  if (last_motion_odom_) flags |= 2u;
  if (gate_odom_) flags |= 4u;
  writer.u8(flags);
  const auto write_pose = [&](const std::optional<Pose2>& pose) {
    if (!pose) return;
    writer.f64(pose->x());
    writer.f64(pose->y());
    writer.f64(pose->yaw);
  };
  write_pose(current_odom_);
  write_pose(last_motion_odom_);
  write_pose(gate_odom_);
  writer.u64(updates_run_);
  writer.u64(dropped_frames_);
  writer.f64(last_correction_s_);
  writer.f64(total_correction_s_);
  std::visit([&](const auto& pf) { pf.save_state(writer); }, filter_);
}

std::size_t Localizer::snapshot_bytes() const {
  // Magic, version, precision, budget, chunks, seed, pose flags, up to
  // three odometry poses, two counters and two timings.
  constexpr std::size_t kHeaderBytes = 4 + 2 + 1 + 3 * 8 + 1 + 3 * 24 + 4 * 8;
  return kHeaderBytes +
         std::visit([](const auto& pf) { return pf.state_bytes(); }, filter_);
}

void Localizer::load_snapshot(map::SnapshotReader& reader) {
  SerialGuard::Scope serial(serial_guard_);
  if (reader.u32() != kSnapshotMagic) {
    throw IoError("not a localizer snapshot (bad magic)");
  }
  const std::uint16_t version = reader.u16();
  if (version != kSnapshotVersion) {
    throw IoError("unsupported localizer snapshot version " +
                  std::to_string(version) + " (this build reads version " +
                  std::to_string(kSnapshotVersion) + ")");
  }
  TOFMCL_EXPECTS(reader.u8() == static_cast<std::uint8_t>(config_.precision),
                 "snapshot precision does not match this localizer");
  TOFMCL_EXPECTS(reader.u64() == config_.mcl.num_particles,
                 "snapshot particle budget does not match this localizer");
  TOFMCL_EXPECTS(reader.u64() == config_.mcl.chunks,
                 "snapshot chunk count does not match this localizer");
  TOFMCL_EXPECTS(reader.u64() == config_.mcl.seed,
                 "snapshot seed does not match this localizer");
  const std::uint8_t flags = reader.u8();
  // on_odometry never stores a non-finite anchor; one from a blob would
  // turn every particle into NaN at the next correction.
  const auto read_pose = [&]() {
    const double x = reader.finite_f64();
    const double y = reader.finite_f64();
    const double yaw = reader.finite_f64();
    return Pose2{x, y, yaw};
  };
  current_odom_.reset();
  last_motion_odom_.reset();
  gate_odom_.reset();
  queued_count_ = 0;
  if (flags & 1u) current_odom_ = read_pose();
  if (flags & 2u) last_motion_odom_ = read_pose();
  if (flags & 4u) gate_odom_ = read_pose();
  updates_run_ = static_cast<std::size_t>(reader.u64());
  dropped_frames_ = static_cast<std::size_t>(reader.u64());
  last_correction_s_ = reader.duration_f64();
  total_correction_s_ = reader.duration_f64();
  const MapResources& maps = ctx_->maps();
  std::visit(
      [&](auto& pf) {
        pf.load_state(reader);
        // The injection support is map data, not session state: re-arm it
        // from the shared resources exactly as both start paths do.
        pf.set_injection_support(maps.free_cells, maps.cell_jitter);
      },
      filter_);
}

}  // namespace tofmcl::core
