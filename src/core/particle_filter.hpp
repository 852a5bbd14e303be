#pragma once
/// \file particle_filter.hpp
/// \brief Monte Carlo localization with the paper's four parallel phases.
///
/// The filter estimates the planar pose (x, y, θ) of the nano-UAV on an
/// occupancy-grid map from sparse multizone-ToF beams and drifting
/// odometry (paper Section III-C). Its update cycle has four phases, each
/// parallelized by statically chunking the particle array — the exact
/// scheme used on the 8 GAP9 worker cores:
///
///   1. motion update       — sample p(x_t | x_{t-1}, u_t), Gaussian noise
///                            σ_odom on the body-frame odometry delta
///   2. observation update  — beam end-point model (Eq. 1) against the
///                            truncated EDT (direct exp or 8-bit LUT)
///   3. resampling          — systematic wheel; per-chunk partial weight
///                            sums let every chunk draw its own arrows
///                            (Fig 4), bit-identical to the serial wheel
///   4. pose computation    — weighted mean, circular mean for yaw
///
/// Particles live in structure-of-arrays storage (particle_soa.hpp) so the
/// per-particle kernels stream unit-stride over each field and vectorize;
/// phases 1 and 2 are additionally available fused into one pass
/// (motion_observation_update) so a correction touches the particle state
/// once instead of twice. Both the fusion and the SoA layout are pure
/// re-orderings of memory traffic: every particle still sees the exact
/// arithmetic (and per-chunk RNG stream) of the phase-by-phase path, so
/// results are bit-identical to it. The motion phase draws each chunk's
/// normals 64 particles at a time (kernels::motion_sweep → Rng::gaussians),
/// which is the same kind of re-ordering: the chunk's stream yields the
/// values one Rng::gaussian call per draw would, in the same order.
///
/// A correction is three executor calls (update()): the fused pass, the
/// resampling draw and the pose. The fused pass first replays any queued
/// odometry deltas — the Localizer queues the motion of gated-out ticks
/// instead of sweeping the particles per tick — then samples the
/// correction's own delta, observes, and leaves each chunk's weight sum
/// for the draw. Every chunk still runs the same motion sweeps in the same
/// order from its own stream, so the result is bit-identical to one
/// motion_update per tick followed by motion_observation_update, resample
/// and compute_pose. The pose sums call cos/sin once per run of particles
/// with equal yaw bits (resampled copies sit next to each other), which
/// is again the same arithmetic (pose_sums).
///
/// Both sweeps dispatch to a hand-written SIMD backend (src/core/kernels/:
/// AVX2): the motion sweep for every precision, the observation sweep for
/// the LUT observation model (Fp32Traits observes on the scalar loop). The
/// scalar code stays the determinism reference — the observation step
/// below, and Rng::gaussians plus the motion step in motion_kernel.cpp.
/// A SIMD kernel handles whole vector blocks and the scalar step always
/// covers the tail, so there is exactly one definition of the reference
/// arithmetic; the motion kernel also leaves each chunk's generator in the
/// reference's state, bit for bit. Backend selection:
/// kernels::default_backend() (compile detection + runtime probe +
/// TOFMCL_KERNEL env override), overridable per filter with
/// set_kernel_backend().
///
/// Given a fixed chunk count, results are bit-identical on every executor;
/// threads only change wall-clock. Per-chunk RNG streams make the whole
/// filter reproducible from MclConfig::seed.
///
/// Everything the filter MUTATES lives in one relocatable aggregate,
/// FilterState (filter_state.hpp); the filter object itself adds only
/// pointers to shared read-only context (map, observation model, executor,
/// optional ParticleArena). That split is what the serving layer's
/// snapshot/restore (save_state / load_state) and session eviction build
/// on. With MclConfig::adaptive_particles the active count follows the
/// KLD-sampling bound within arena size classes; the default fixed-count
/// mode never calls the adaptation path and is bit-identical to the
/// pre-split filter.
///
/// Template parameter `Traits` selects the paper's design points:
/// Fp32Traits, Fp32QmTraits, Fp16QmTraits (Section III-C2).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/angles.hpp"
#include "common/error.hpp"
#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "core/executor.hpp"
#include "core/filter_state.hpp"
#include "core/kernels/motion_kernel.hpp"
#include "core/kernels/observation_kernel.hpp"
#include "core/likelihood.hpp"
#include "core/mcl_config.hpp"
#include "core/particle.hpp"
#include "core/particle_arena.hpp"
#include "core/particle_soa.hpp"
#include "fp16/half.hpp"
#include "map/distance_map.hpp"
#include "map/snapshot_io.hpp"
#include "sensor/beam_model.hpp"

namespace tofmcl::core {

/// fp32: float particles, float EDT.
struct Fp32Traits {
  using Scalar = float;
  using Map = map::DistanceMap;
  using ObservationModel = DirectObservationModel;
  static constexpr Precision kPrecision = Precision::kFp32;
};

/// fp32qm: float particles, 8-bit quantized EDT with likelihood LUT.
struct Fp32QmTraits {
  using Scalar = float;
  using Map = map::QuantizedDistanceMap;
  using ObservationModel = LutObservationModel;
  static constexpr Precision kPrecision = Precision::kFp32Qm;
};

/// fp16qm: fp16 particles, 8-bit quantized EDT with likelihood LUT.
struct Fp16QmTraits {
  using Scalar = Half;
  using Map = map::QuantizedDistanceMap;
  using ObservationModel = LutObservationModel;
  static constexpr Precision kPrecision = Precision::kFp16Qm;
};

/// The weighted sums phase 4 reduces (ParticleFilter::compute_pose).
struct PoseSums {
  double w = 0.0, wx = 0.0, wy = 0.0, wc = 0.0, ws = 0.0, wxx = 0.0;
};

/// Phase 4's sums over particles [begin, end) of one chunk, every field
/// widened through float. cos/sin of a yaw are computed once per run of
/// particles whose float yaw has the same bit pattern as its predecessor's
/// — resampling leaves each particle's copies side by side — and reused
/// for the rest of the run. Equal input bits give equal libm results, so
/// the sums are those of a cos/sin call per particle, bit for bit (a sum
/// that meets a NaN stays NaN). The comparison is on bits, so +0.0 and
/// −0.0 never share a result and a NaN yaw only reuses its own payload's.
template <typename Scalar>
PoseSums pose_sums(const ParticleSoA<Scalar>& p, std::size_t begin,
                   std::size_t end) {
  PoseSums a;
  std::uint32_t run_bits = 0;
  double c = 0.0;
  double s = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    const double w = static_cast<double>(static_cast<float>(p.weight[i]));
    const double x = static_cast<double>(static_cast<float>(p.x[i]));
    const double y = static_cast<double>(static_cast<float>(p.y[i]));
    const float yaw = static_cast<float>(p.yaw[i]);
    const auto bits = std::bit_cast<std::uint32_t>(yaw);
    if (i == begin || bits != run_bits) {
      run_bits = bits;
      c = std::cos(static_cast<double>(yaw));
      s = std::sin(static_cast<double>(yaw));
    }
    a.w += w;
    a.wx += w * x;
    a.wy += w * y;
    a.wc += w * c;
    a.ws += w * s;
    a.wxx += w * (x * x + y * y);
  }
  return a;
}

template <typename Traits>
class ParticleFilter {
 public:
  using Scalar = typename Traits::Scalar;
  using Map = typename Traits::Map;
  using ObservationModel = typename Traits::ObservationModel;

  /// The map must outlive the filter.
  ParticleFilter(const Map& map, const MclConfig& config, Executor& executor,
                 std::shared_ptr<ParticleArena> arena = nullptr)
      : ParticleFilter(map, config, executor,
                       ObservationModel(map, beam_model_params(config)),
                       std::move(arena)) {}

  /// Variant taking a prebuilt observation model (e.g. a shared likelihood
  /// LUT from a campaign's per-map resources). The model must reference
  /// the same `map`. With an arena, both particle blocks are leased from
  /// it (and returned on destruction) instead of heap-allocated.
  ParticleFilter(const Map& map, const MclConfig& config, Executor& executor,
                 ObservationModel observation_model,
                 std::shared_ptr<ParticleArena> arena = nullptr)
      : map_(&map),
        config_(config),
        executor_(&executor),
        observation_model_(std::move(observation_model)),
        arena_(std::move(arena)) {
    TOFMCL_EXPECTS(config.num_particles > 0, "need at least one particle");
    TOFMCL_EXPECTS(config.chunks > 0 && config.chunks <= kMaxChunks,
                   "chunk count must be in [1, 64]");
    TOFMCL_EXPECTS(config.sigma_obs > 0.0, "sigma_obs must be positive");
    TOFMCL_EXPECTS(config.z_hit + config.z_rand > 0.0,
                   "z_hit + z_rand must be positive");
    TOFMCL_EXPECTS(config.z_short >= 0.0, "z_short must be non-negative");
    mixture_params_ = beam_model_params(config_);
    if (arena_) {
      st_.particles = arena_->template acquire<Scalar>(config_.num_particles,
                                                       st_.block_capacity);
      std::size_t back_capacity = 0;
      st_.back_buffer =
          arena_->template acquire<Scalar>(config_.num_particles,
                                           back_capacity);
    } else {
      st_.particles.resize(config_.num_particles);
      st_.back_buffer.resize(config_.num_particles);
    }
    st_.chunk_sums.resize(config_.chunks);
    Rng master(config_.seed);
    st_.rngs.reserve(config_.chunks);
    for (std::size_t c = 0; c < config_.chunks; ++c) {
      st_.rngs.push_back(master.fork());
    }
    st_.resample_rng = master.fork();
  }

  ~ParticleFilter() { release_blocks(); }

  ParticleFilter(ParticleFilter&&) noexcept = default;
  ParticleFilter& operator=(ParticleFilter&& other) noexcept {
    if (this != &other) {
      release_blocks();
      map_ = other.map_;
      config_ = other.config_;
      executor_ = other.executor_;
      observation_model_ = std::move(other.observation_model_);
      mixture_params_ = other.mixture_params_;
      st_ = std::move(other.st_);
      last_resample_drew_ = other.last_resample_drew_;
      support_ = other.support_;
      support_jitter_ = other.support_jitter_;
      backend_ = other.backend_;
      arena_ = std::move(other.arena_);
    }
    return *this;
  }

  const MclConfig& config() const { return config_; }
  const Map& map() const { return *map_; }
  /// Active SIMD backend of the motion and observation sweeps (see
  /// kernel_backend.hpp; defaults to kernels::default_backend()). Every
  /// precision runs the motion kernel on it; only the LUT observation
  /// model has an observation kernel — Fp32Traits (direct expf model)
  /// observes on the scalar reference regardless of this setting.
  kernels::KernelBackend kernel_backend() const { return backend_; }
  /// Overrides the backend (equivalence tests, benchmarks). A backend this
  /// build or CPU cannot run (kernels::backend_supported) is stored as
  /// kScalar, so the filter silently runs the scalar reference and no
  /// dispatch site ever sees an unsupported backend.
  void set_kernel_backend(kernels::KernelBackend backend) {
    backend_ = kernels::backend_supported(backend)
                   ? backend
                   : kernels::KernelBackend::kScalar;
  }
  /// The particles, one array per field (see particle_soa.hpp).
  const ParticleSoA<Scalar>& soa() const { return st_.particles; }
  /// Advanced: direct particle access for custom initialization or
  /// injection schemes (e.g. kidnapped-robot recovery). Writes must keep
  /// the size; the filter makes no assumption about weights beyond being
  /// non-negative and finite.
  ParticleSoA<Scalar>& mutable_soa() { return st_.particles; }
  /// Active particle count. Equal to config().num_particles unless
  /// adaptive counts shrank/grew the set.
  std::size_t size() const { return st_.particles.size(); }
  /// Bytes the particle storage actually pins right now (both blocks at
  /// their allocated capacity — the serving layer's per-session resident
  /// memory). Fixed-count mode: equals particle_buffer_bytes rounded up
  /// to the arena size class.
  std::size_t resident_bytes() const {
    return (st_.particles.capacity() + st_.back_buffer.capacity()) *
           4 * sizeof(Scalar);
  }

  /// Global localization init: particles drawn uniformly over the support
  /// points (free cell centers), jittered by ±jitter on each axis, yaw
  /// uniform in (-π, π]. The support is retained for Augmented-MCL
  /// recovery injection — the caller keeps it alive (it is the map's
  /// free-cell table, shared by every filter on the map, not copied).
  void init_uniform(std::span<const Vec2> support, double jitter) {
    TOFMCL_EXPECTS(!support.empty(), "uniform init needs support points");
    set_injection_support(support, jitter);
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Rng& rng = st_.rngs[chunk];
          for (std::size_t i = begin; i < end; ++i) {
            const Vec2 center = support[rng.uniform_index(support.size())];
            store(st_.particles, i, center.x + rng.uniform(-jitter, jitter),
                  center.y + rng.uniform(-jitter, jitter),
                  rng.uniform(-kPi, kPi), 1.0);
          }
        });
    st_.estimate.valid = false;
  }

  /// Provides (or replaces) the free-space support used by recovery
  /// injection. Tracking-initialized filters have no support until this
  /// is called, which disables injection. The filter keeps a VIEW: the
  /// support must outlive it (map resources do; they are what every call
  /// site passes).
  void set_injection_support(std::span<const Vec2> support, double jitter) {
    support_ = support;
    support_jitter_ = jitter;
  }

  /// Tracking init: Gaussian cloud around a known pose.
  void init_gaussian(const Pose2& mean, double sigma_xy, double sigma_yaw) {
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Rng& rng = st_.rngs[chunk];
          for (std::size_t i = begin; i < end; ++i) {
            store(st_.particles, i, rng.gaussian(mean.x(), sigma_xy),
                  rng.gaussian(mean.y(), sigma_xy),
                  wrap_pi(rng.gaussian(mean.yaw, sigma_yaw)), 1.0);
          }
        });
    st_.estimate.valid = false;
  }

  /// Phase 1 — motion update. `delta` is the odometry motion since the
  /// last motion update, expressed in the drone body frame.
  ///
  /// σ_odom is interpreted per gate interval (dxy of translation / dθ of
  /// rotation — the paper's update quantum): the noise applied to one
  /// delta is scaled by √(motion/gate) so diffusion accumulates at the
  /// configured rate per distance traveled regardless of how often the
  /// motion model is sampled, and a hovering drone does not diffuse.
  ///
  /// Each chunk draws its noise from its own RNG stream in blocks (see
  /// motion_sweep); the values are those of one Rng::gaussian call per
  /// draw, bit for bit.
  void motion_update(const Pose2& delta) {
    motion_update(std::span(&delta, 1));
  }

  /// Phase 1 for several deltas, oldest first, in one executor call (none
  /// when `deltas` is empty). Each chunk sweeps its particles once per
  /// delta from its own stream, so the result equals one
  /// motion_update(delta) per delta, bit for bit.
  void motion_update(std::span<const Pose2> deltas) {
    if (deltas.empty()) return;
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          for (const Pose2& delta : deltas) {
            motion_sweep(begin, end, motion_params(delta), st_.rngs[chunk]);
          }
        });
  }

  /// Phase 2 — observation update: multiply each particle's weight by the
  /// per-beam-normalized end-point likelihood of every (valid) beam.
  ///
  /// Each factor is scaled by 1/(z_hit + z_rand + short_b) — its maximum —
  /// before multiplying, which is the log-space normalization
  /// exp(Σ log f_b − Σ log f_max,b) folded into the product one beam at a
  /// time. A perfectly matched particle keeps weight ≈ 1 for ANY beam
  /// count, where the unnormalized product (max Π f_max,b) underflows fp32
  /// storage once B is large and f_max < 1 — e.g. 128 beams from two 8×8
  /// sensors — silently zeroing every weight and with it the Augmented-MCL
  /// recovery monitor. When z_hit + z_rand == 1 (the defaults) the scale
  /// is exactly 1.0f and the arithmetic is unchanged bit for bit.
  ///
  /// The per-beam state (short floor, normalizer, gate verdict) is computed
  /// ONCE here — a pure function of the beams, the previous pose estimate
  /// and the map — into the sweep-beam array every particle then iterates;
  /// gated beams are left out of it. With z_short == 0 each floor is
  /// +0.0f and each scale is 1/(z_hit + z_rand), and a factor is never
  /// −0.0f, so (f + floor) · scale == f · scale bit for bit: the paper's
  /// two-term model is this kernel, not a second one.
  void observation_update(std::span<const sensor::Beam> beams) {
    st_.workload.particles = st_.particles.size();
    st_.workload.beams = beams.size();
    st_.workload.gated_beams = 0;
    st_.workload.novelty_armed = false;
    if (beams.empty()) return;
    prepare_beams(beams);
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          observation_sweep(begin, end);
        });
  }

  /// Phases 1+2 fused: one pass over the particle state per correction.
  /// Bit-identical to motion_update(delta) followed by
  /// observation_update(beams) — the observation consumes no randomness
  /// and the per-beam mixture/gating state is computed before the sweep
  /// from the SAME inputs (previous estimate, map, beams), so fusing
  /// preserves each chunk's RNG stream, and every particle's arithmetic is
  /// untouched; only the traversal order over (particle, phase) changes.
  /// Within a chunk the motion steps run before the observation sweep
  /// (also a pure traversal re-ordering: the observation reads only what
  /// motion wrote and consumes no randomness), which is what lets the
  /// observation half dispatch to the SIMD backend. The same pass leaves
  /// each chunk's weight sum behind for update()'s resampling draw.
  void motion_observation_update(const Pose2& delta,
                                 std::span<const sensor::Beam> beams) {
    fused_pass({}, delta, beams);
  }

  /// Phase 3 — systematic resampling on the wheel (Fig 4). Per-chunk
  /// partial weight sums assign each chunk its own contiguous range of
  /// arrows; the outcome is identical to a serial systematic resampler
  /// fed the same partial-sum prefix. Every weight is 1 afterwards.
  void resample() {
    // Step 1 (parallel): per-chunk weight sums — these are the partial
    // sums the paper stores during weight normalization. update() takes
    // them from the fused pass instead.
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          st_.chunk_sums[chunk] = weight_sum(begin, end);
        });
    draw();
  }

  /// Phase 4 — pose computation: weighted average over all particles
  /// (circular mean for yaw), plus dispersion for convergence monitoring.
  PoseEstimate compute_pose() {
    const std::size_t n = st_.particles.size();
    const std::size_t chunks =
        std::clamp<std::size_t>(config_.chunks, 1, n);
    // Every chunk writes its own entry: no heap block, no zero-fill.
    std::array<PoseSums, kMaxChunks> acc;
    executor_->for_chunks(
        n, chunks, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          acc[chunk] = pose_sums(st_.particles, begin, end);
        });
    PoseSums total;
    for (const PoseSums& a : std::span(acc).first(chunks)) {
      total.w += a.w;
      total.wx += a.wx;
      total.wy += a.wy;
      total.wc += a.wc;
      total.ws += a.ws;
      total.wxx += a.wxx;
    }
    PoseEstimate est;
    const double mx = total.wx / total.w;
    const double my = total.wy / total.w;
    const double myaw = std::atan2(total.ws, total.wc);
    // Finite weights do not imply finite particles: one non-finite pose
    // poisons the mean, and that must not be reported as a valid estimate.
    if (!(total.w > 0.0) || !std::isfinite(total.w) || !std::isfinite(mx) ||
        !std::isfinite(my) || !std::isfinite(myaw)) {
      est.valid = false;
      st_.estimate = est;
      return est;
    }
    est.pose = Pose2{mx, my, myaw};
    const double second = total.wxx / total.w - (mx * mx + my * my);
    est.position_stddev = std::sqrt(std::max(0.0, second));
    est.yaw_concentration =
        std::sqrt(total.wc * total.wc + total.ws * total.ws) / total.w;
    est.valid = true;
    st_.estimate = est;
    return est;
  }

  /// One full update cycle in the paper's order, in three executor calls:
  /// the fused pass (the `queued` deltas, oldest first, then `delta`, the
  /// observation and each chunk's weight sum), the resampling draw and the
  /// pose. Bit-identical to motion_update(d) for each queued d, then
  /// motion_observation_update(delta, beams), resample() and
  /// compute_pose().
  PoseEstimate update(std::span<const Pose2> queued, const Pose2& delta,
                      std::span<const sensor::Beam> beams) {
    fused_pass(queued, delta, beams);
    draw();
    return compute_pose();
  }

  /// update() with nothing queued.
  PoseEstimate update(const Pose2& delta, std::span<const sensor::Beam> beams) {
    return update({}, delta, beams);
  }

  /// KLD-sampling adaptation (MclConfig::adaptive_particles): after a
  /// correction whose resample actually drew (weights are uniformly 1,
  /// so the set can be re-sized without re-weighting), shrink or grow the
  /// active count toward the KLD bound for the occupied (x, y, yaw) bins.
  /// A recovery injection snaps straight back to the full budget — a
  /// kidnapped filter must not fight with a shrunken set. Counts move in
  /// arena size classes; shrinking at most one class per correction
  /// (hysteresis), growing instantly. No-op in fixed-count mode.
  void adapt_particle_count() {
    if (!config_.adaptive_particles || !last_resample_drew_) return;
    const std::size_t n = st_.particles.size();
    const std::size_t floor_n =
        std::min(config_.min_particles, config_.num_particles);
    std::size_t target = st_.monitor.last_inject_p > 0.0
                             ? config_.num_particles
                             : kld_target();
    target = std::clamp(target, floor_n, config_.num_particles);
    target = std::min(ParticleArena::size_class(target),
                      config_.num_particles);
    if (target < n) target = std::max(target, n / 2);
    if (target != n) set_active_count(target);
  }

  /// Serializes the persistent filter state (active particles, RNG
  /// streams, estimate, recovery monitor) — see the FilterState doc for
  /// the persistent/scratch split. Binary, little-endian, raw IEEE bits:
  /// load_state() resumes bit-identically.
  void save_state(map::SnapshotWriter& w) const {
    w.u64(st_.particles.size());
    w.u8(static_cast<std::uint8_t>(sizeof(Scalar)));
    w.u32(static_cast<std::uint32_t>(st_.rngs.size()));
    for (const Rng& rng : st_.rngs) write_rng(w, rng);
    write_rng(w, st_.resample_rng);
    w.f64(st_.estimate.pose.x());
    w.f64(st_.estimate.pose.y());
    w.f64(st_.estimate.pose.yaw);
    w.f64(st_.estimate.position_stddev);
    w.f64(st_.estimate.yaw_concentration);
    w.boolean(st_.estimate.valid);
    w.f64(st_.monitor.w_slow);
    w.f64(st_.monitor.w_fast);
    w.f64(st_.monitor.last_inject_p);
    w.u64(st_.blind_streak);
    w.array(st_.particles.x);
    w.array(st_.particles.y);
    w.array(st_.particles.yaw);
    write_weights(w, st_.particles.weight);
  }

  /// Bytes save_state() writes, at most: exact unless the weights are one
  /// constant run, which stores one scalar instead of n.
  std::size_t state_bytes() const {
    constexpr std::size_t kRngBytes = 4 * 8 + 8 + 1;
    constexpr std::size_t kFixedBytes = 8 + 1 + 4 + 5 * 8 + 1 + 3 * 8 + 8 + 1;
    return kFixedBytes + (st_.rngs.size() + 1) * kRngBytes +
           4 * st_.particles.size() * sizeof(Scalar);
  }

  /// Restores what save_state() wrote, re-sizing the particle storage to
  /// the snapshotted active count. The injection support is NOT part of
  /// the blob (it is map data) — the owner re-arms it, exactly as both
  /// start paths do. A non-finite estimate or monitor value is refused
  /// with IoError: the filter never writes one, and a NaN `w_slow` would
  /// silently disable injection.
  void load_state(map::SnapshotReader& r) {
    const std::size_t n = static_cast<std::size_t>(r.u64());
    TOFMCL_EXPECTS(n > 0 && n <= config_.num_particles,
                   "snapshot particle count outside [1, num_particles]");
    TOFMCL_EXPECTS(config_.adaptive_particles || n == config_.num_particles,
                   "fixed-count filter needs a snapshot of num_particles");
    TOFMCL_EXPECTS(r.u8() == sizeof(Scalar),
                   "snapshot scalar width does not match this precision");
    TOFMCL_EXPECTS(r.u32() == st_.rngs.size(),
                   "snapshot RNG stream count does not match chunks");
    for (Rng& rng : st_.rngs) rng = read_rng(r);
    st_.resample_rng = read_rng(r);
    const double px = r.finite_f64();
    const double py = r.finite_f64();
    const double pyaw = r.finite_f64();
    st_.estimate.pose = Pose2{px, py, pyaw};
    st_.estimate.position_stddev = r.finite_f64();
    st_.estimate.yaw_concentration = r.finite_f64();
    st_.estimate.valid = r.boolean();
    st_.monitor.w_slow = r.finite_f64();
    st_.monitor.w_fast = r.finite_f64();
    st_.monitor.last_inject_p = r.finite_f64();
    st_.blind_streak = static_cast<std::size_t>(r.u64());
    resize_storage(n);
    r.array(st_.particles.x);
    r.array(st_.particles.y);
    r.array(st_.particles.yaw);
    read_weights(r, st_.particles.weight);
    st_.workload = UpdateWorkload{};
    last_resample_drew_ = false;
  }

  /// Most recent pose estimate (invalid before the first compute_pose()).
  const PoseEstimate& estimate() const { return st_.estimate; }
  /// Workload of the most recent observation update.
  const UpdateWorkload& workload() const { return st_.workload; }
  /// Augmented-MCL monitor state (diagnostics / regression tests).
  const InjectionMonitor& injection_monitor() const { return st_.monitor; }

 private:
  /// Phases 1+2 (and resampling's step 1) in one executor call: each chunk
  /// sweeps the `queued` deltas and then `delta` from its own stream,
  /// observes `beams` (the per-beam state is prepared first, from inputs
  /// the motion does not touch), and leaves its weight sum in chunk_sums
  /// for draw().
  void fused_pass(std::span<const Pose2> queued, const Pose2& delta,
                  std::span<const sensor::Beam> beams) {
    const kernels::MotionParams mp = motion_params(delta);
    st_.workload.particles = st_.particles.size();
    st_.workload.beams = beams.size();
    st_.workload.gated_beams = 0;
    st_.workload.novelty_armed = false;
    if (!beams.empty()) prepare_beams(beams);
    executor_->for_chunks(
        st_.particles.size(), config_.chunks,
        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Rng& rng = st_.rngs[chunk];
          for (const Pose2& q : queued) {
            motion_sweep(begin, end, motion_params(q), rng);
          }
          motion_sweep(begin, end, mp, rng);
          // Keyed on the input, not the sweep array: an update whose every
          // beam is gated still sweeps.
          if (!beams.empty()) observation_sweep(begin, end);
          st_.chunk_sums[chunk] = weight_sum(begin, end);
        });
  }

  /// Resampling step 1 for one chunk: its weight sum, each weight widened
  /// through float exactly as the draw below walks it.
  double weight_sum(std::size_t begin, std::size_t end) const {
    double sum = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += static_cast<double>(static_cast<float>(st_.particles.weight[i]));
    }
    return sum;
  }

  /// Resampling steps 2 and 3 on the chunk sums step 1 left in chunk_sums.
  void draw() {
    const std::size_t n = st_.particles.size();
    const std::size_t chunks =
        std::clamp<std::size_t>(config_.chunks, 1, n);
    st_.monitor.last_inject_p = 0.0;
    last_resample_drew_ = false;

    // Step 2 (serial, O(chunks)): prefix offsets and total mass.
    double total = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) {
      st_.chunk_prefix[c] = total;
      total += st_.chunk_sums[c];
    }
    if (!(total > 0.0) || !std::isfinite(total)) {
      // Degenerate weights (all zero/NaN): keep the particle set, reset
      // weights — the next observation re-weights from scratch.
      std::fill(st_.particles.weight.begin(), st_.particles.weight.end(),
                Scalar(1.0f));
      return;
    }

    // Augmented-MCL likelihood monitoring: compare the short- and
    // long-term averages of the per-particle likelihood (weights are 1
    // after each resample, so total/n is the mean observation
    // likelihood). The observation kernel already normalized every factor
    // by its per-beam maximum, so total/n is directly comparable across
    // beam counts — no pow(per_beam_max, beams) divisor, whose underflow
    // for large beam counts used to turn w_avg into inf/NaN and silently
    // disable (or saturate) recovery injection.
    // Gated beams contribute nothing to the weights, so an update whose
    // every beam was gated carries no observation information — the
    // monitor must not mistake it for evidence (in either direction).
    double inject_p = 0.0;
    if (config_.enable_injection && !support_.empty() &&
        st_.workload.beams > st_.workload.gated_beams) {
      const double w_avg = total / static_cast<double>(n);
      if (st_.monitor.w_slow <= 0.0) {
        st_.monitor.w_slow = w_avg;
        st_.monitor.w_fast = w_avg;
      } else {
        st_.monitor.w_slow +=
            kInjectionAlphaSlow * (w_avg - st_.monitor.w_slow);
        st_.monitor.w_fast +=
            kInjectionAlphaFast * (w_avg - st_.monitor.w_fast);
      }
      if (st_.monitor.w_slow > 0.0) {
        inject_p = std::clamp(1.0 - st_.monitor.w_fast / st_.monitor.w_slow,
                              0.0, kInjectionMaxFraction);
      }
      st_.monitor.last_inject_p = inject_p;
    }

    // One random number spins the wheel; arrows sit at u0 + i·step.
    const double step = total / static_cast<double>(n);
    const double u0 = st_.resample_rng.uniform() * step;

    // Arrow index ranges per chunk, derived from the prefix sums with one
    // consistent rule so they partition [0, n) exactly.
    const auto arrow_begin = [&](std::size_t c) -> std::size_t {
      if (c == 0) return 0;
      if (c >= chunks) return n;
      const double q = (st_.chunk_prefix[c] - u0) / step;
      const auto idx = static_cast<long long>(std::ceil(q));
      return static_cast<std::size_t>(
          std::clamp<long long>(idx, 0, static_cast<long long>(n)));
    };

    // Step 3 (parallel): each chunk draws the new particles whose arrows
    // fall inside its weight span, writing into the double buffer. A
    // recovery fraction of slots receives uniform redraws instead.
    executor_->for_chunks(
        n, chunks, [&](std::size_t chunk, std::size_t begin, std::size_t end) {
          Rng& rng = st_.rngs[chunk];
          std::size_t arrow = arrow_begin(chunk);
          const std::size_t arrow_end = arrow_begin(chunk + 1);
          std::size_t src = begin;
          double cum = st_.chunk_prefix[chunk] +
                       static_cast<double>(static_cast<float>(
                           st_.particles.weight[src]));
          for (; arrow < arrow_end; ++arrow) {
            const double u = u0 + static_cast<double>(arrow) * step;
            while (u >= cum && src + 1 < end) {
              ++src;
              cum += static_cast<double>(static_cast<float>(
                  st_.particles.weight[src]));
            }
            if (inject_p > 0.0 && rng.bernoulli(inject_p)) {
              const Vec2 center =
                  support_[rng.uniform_index(support_.size())];
              store(st_.back_buffer, arrow,
                    center.x + rng.uniform(-support_jitter_, support_jitter_),
                    center.y + rng.uniform(-support_jitter_, support_jitter_),
                    rng.uniform(-kPi, kPi), 1.0);
            } else {
              st_.back_buffer.copy_from(st_.particles, arrow, src);
              st_.back_buffer.weight[arrow] = Scalar(1.0f);
            }
          }
        });
    st_.particles.swap(st_.back_buffer);
    last_resample_drew_ = true;
  }

  kernels::MotionParams motion_params(const Pose2& delta) const {
    double noise_scale = 1.0;
    if (config_.scale_noise_with_motion) {
      const double gate_fraction =
          delta.position.norm() / config_.gate_dxy +
          std::abs(delta.yaw) / config_.gate_dtheta;
      noise_scale = std::sqrt(std::min(gate_fraction, 4.0));
    }
    return kernels::MotionParams{delta.x(), delta.y(), delta.yaw,
                                 config_.sigma_odom_xy * noise_scale,
                                 config_.sigma_odom_yaw * noise_scale};
  }

  /// Phase 1 over particles [begin, end) of one chunk, drawing from that
  /// chunk's stream: kernels::motion_sweep on the filter's backend (see
  /// motion_kernel.hpp for the reference and the contract). Its normals
  /// are those of one Rng::gaussian call per draw, in the order the
  /// per-particle draws take them (dx, dy, dyaw per particle), and each
  /// sample is mean + stddev·z, the expression inside
  /// Rng::gaussian(mean, stddev).
  void motion_sweep(std::size_t begin, std::size_t end,
                    const kernels::MotionParams& mp, Rng& rng) {
    kernels::motion_sweep(backend_, mp, rng, motion_spans(), begin, end);
  }

  auto motion_spans() {
    if constexpr (std::is_same_v<Scalar, Half>) {
      return kernels::MotionSpansF16{st_.particles.x.data(),
                                     st_.particles.y.data(),
                                     st_.particles.yaw.data()};
    } else {
      return kernels::MotionSpansF32{st_.particles.x.data(),
                                     st_.particles.y.data(),
                                     st_.particles.yaw.data()};
    }
  }

  /// Fills the sweep-beam array: every beam the novelty gate keeps, in
  /// input order, with its short-return floor and its normalizer
  /// 1/(z_hit + z_rand + floor) (see observation_update).
  ///
  /// Pure function of (beams, config, previous estimate, map): both the
  /// phased and the fused sweep call it before touching any particle, so
  /// they classify identically and stay bit-identical to each other.
  void prepare_beams(std::span<const sensor::Beam> beams) {
    // Concentration, not position_stddev: the recovery tail of injected
    // uniform particles inflates the position variance by construction
    // (see kNoveltyMinConcentration).
    const bool want_gate =
        config_.enable_novelty_gating && st_.estimate.valid &&
        st_.estimate.yaw_concentration >= kNoveltyMinConcentration;
    st_.workload.novelty_armed = want_gate;

    // Blind-streak fail-safe (kNoveltyMaxBlindUpdates): too
    // many consecutive fully-gated corrections means the gate is starving
    // the filter of evidence — stand down for this update so a kidnapping
    // toward nearer surfaces cannot hide behind its own gating.
    const bool gate =
        want_gate && st_.blind_streak < kNoveltyMaxBlindUpdates;

    st_.sweep_beams.clear();
    const double est_yaw = st_.estimate.pose.yaw;
    const double gc = std::cos(est_yaw);
    const double gs = std::sin(est_yaw);
    for (const sensor::Beam& beam : beams) {
      if (gate) {
        // Ray from the sensor position under the ESTIMATED pose along the
        // beam direction. The body-frame origin is recovered from the
        // precomputed end point (it already includes the mount offset).
        const double ca = std::cos(beam.azimuth_body);
        const double sa = std::sin(beam.azimuth_body);
        const double range = static_cast<double>(beam.range_m);
        const double ox_b = static_cast<double>(beam.endpoint_body.x) -
                            range * ca;
        const double oy_b = static_cast<double>(beam.endpoint_body.y) -
                            range * sa;
        const Vec2 origin{
            st_.estimate.pose.x() + gc * ox_b - gs * oy_b,
            st_.estimate.pose.y() + gs * ox_b + gc * oy_b};
        const Vec2 dir{gc * ca - gs * sa, gs * ca + gc * sa};
        if (!map_surface_within(origin, dir,
                                range + kNoveltyMargin)) {
          // The map expects free space well past the measured range: the
          // return bounced off something the map does not know.
          ++st_.workload.gated_beams;
          continue;
        }
      }
      const float floor = short_return_floor(beam.range_m, mixture_params_);
      st_.sweep_beams.push_back(SweepBeam{
          beam.endpoint_body, floor,
          static_cast<float>(1.0 / (config_.z_hit + config_.z_rand +
                                    static_cast<double>(floor)))});
    }
    if (want_gate && !beams.empty() &&
        st_.workload.gated_beams == beams.size()) {
      ++st_.blind_streak;
    } else {
      st_.blind_streak = 0;
    }
  }

  /// Sphere-traces the truncated EDT from `origin` along unit `dir`:
  /// true iff a mapped surface (distance ≤ one cell) lies within `limit`
  /// meters. The truncation at rmax only caps the step length, never the
  /// verdict. O(limit / resolution) worst case, run once per beam per
  /// correction — not in the per-particle hot path.
  bool map_surface_within(Vec2 origin, Vec2 dir, double limit) const {
    const double eps = map_->resolution();
    double t = 0.0;
    while (t <= limit) {
      const float d = map_->distance_at(
          {origin.x + t * dir.x, origin.y + t * dir.y});
      if (static_cast<double>(d) <= eps) return true;
      t += std::max(static_cast<double>(d), eps);
    }
    return false;
  }

  /// Observation kernel body for one particle: transform each sweep beam's
  /// end point by the particle pose and fold its normalized mixture factor
  /// into the weight. Consumes no randomness. This is the determinism
  /// reference that the SIMD port replicates lane-wise.
  inline void observation_step(std::size_t i) {
    const float x = static_cast<float>(st_.particles.x[i]);
    const float y = static_cast<float>(st_.particles.y[i]);
    const float yaw = static_cast<float>(st_.particles.yaw[i]);
    const float c = std::cos(yaw);
    const float s = std::sin(yaw);
    float w = static_cast<float>(st_.particles.weight[i]);
    for (const SweepBeam& beam : st_.sweep_beams) {
      const Vec2f& b = beam.endpoint_body;
      // End point ((x + c·bx) − s·by, (y + s·bx) + c·by). The association
      // is the determinism contract: the SIMD port replicates it
      // mul/add/sub for mul/add/sub (no FMA), so keep it verbatim.
      const float ex = x + c * b.x - s * b.y;
      const float ey = y + s * b.x + c * b.y;
      w *= (observation_model_.factor(ex, ey) + beam.floor) * beam.scale;
    }
    st_.particles.weight[i] = Scalar(w);
  }

  /// Observation sweep over [begin, end) of one chunk: a non-scalar
  /// backend handles whole vector blocks (LUT model only — the direct
  /// expf model has no SIMD kernel), and the scalar reference kernel
  /// covers the remainder. In scalar mode this IS the reference loop,
  /// untouched.
  inline void observation_sweep(std::size_t begin, std::size_t end) {
    if constexpr (std::is_same_v<ObservationModel, LutObservationModel>) {
      if (backend_ != kernels::KernelBackend::kScalar) {
        const kernels::BeamSweepView beam_view{st_.sweep_beams.data(),
                                               st_.sweep_beams.size()};
        begin += kernels::observation_sweep(backend_, lut_map_view(),
                                            beam_view, sweep_spans(), begin,
                                            end);
      }
    }
    for (std::size_t i = begin; i < end; ++i) observation_step(i);
  }

  /// Flattened map + LUT view for the SIMD kernels. Only instantiated for
  /// the LUT observation model (guarded by if constexpr above).
  kernels::LutMapView lut_map_view() const {
    const map::QuantizedDistanceMap& qm = observation_model_.map();
    return kernels::LutMapView{qm.codes().data(), qm.width(),  qm.height(),
                               qm.origin().x,     qm.origin().y,
                               qm.resolution(),   observation_model_.lut().data()};
  }

  auto sweep_spans() {
    if constexpr (std::is_same_v<Scalar, Half>) {
      return kernels::SweepSpansF16{st_.particles.x.data(),
                                    st_.particles.y.data(),
                                    st_.particles.yaw.data(),
                                    st_.particles.weight.data()};
    } else {
      return kernels::SweepSpansF32{st_.particles.x.data(),
                                    st_.particles.y.data(),
                                    st_.particles.yaw.data(),
                                    st_.particles.weight.data()};
    }
  }

  /// KLD-sampling bound (Fox 2001): number of particles so the sampled
  /// approximation stays within ε of the true posterior with confidence
  /// quantile z, given k occupied histogram bins. Bin keys are packed
  /// into one integer and sorted — no unordered containers, so the count
  /// (and with it the whole adaptive trajectory) is deterministic.
  std::size_t kld_target() {
    std::vector<std::int64_t>& keys = st_.kld_keys;
    keys.clear();
    const std::size_t n = st_.particles.size();
    keys.reserve(n);
    const double inv_xy = 1.0 / kKldBinXy;
    const double inv_yaw = 1.0 / kKldBinYaw;
    for (std::size_t i = 0; i < n; ++i) {
      const auto ix = static_cast<std::int64_t>(std::floor(
          static_cast<double>(static_cast<float>(st_.particles.x[i])) *
          inv_xy));
      const auto iy = static_cast<std::int64_t>(std::floor(
          static_cast<double>(static_cast<float>(st_.particles.y[i])) *
          inv_xy));
      const auto iyaw = static_cast<std::int64_t>(std::floor(
          static_cast<double>(static_cast<float>(st_.particles.yaw[i])) *
          inv_yaw));
      keys.push_back(((ix & 0xFFFFF) << 40) | ((iy & 0xFFFFF) << 20) |
                     (iyaw & 0xFFFFF));
    }
    std::sort(keys.begin(), keys.end());
    const auto k = static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
    if (k <= 1) return config_.min_particles;
    const double kd = static_cast<double>(k - 1);
    const double a = 2.0 / (9.0 * kd);
    const double base = 1.0 - a + std::sqrt(a) * kKldZ;
    const double bound = kd / (2.0 * kKldEpsilon) * base * base * base;
    return static_cast<std::size_t>(std::ceil(bound));
  }

  /// Re-sizes the active set to `target`, preserving the represented
  /// distribution: shrinking keeps an even stride subsample of the (all
  /// weight-1) set, growing tiles the existing particles. Storage moves
  /// between arena size classes when needed.
  void set_active_count(std::size_t target) {
    const std::size_t old_n = st_.particles.size();
    if (target == old_n || old_n == 0) return;
    if (arena_ &&
        ParticleArena::size_class(target) != st_.block_capacity) {
      std::size_t cap = 0;
      ParticleSoA<Scalar> fresh =
          arena_->template acquire<Scalar>(target, cap);
      for (std::size_t i = 0; i < target; ++i) {
        fresh.copy_from(st_.particles, i, spread_index(i, target, old_n));
      }
      arena_->release(std::move(st_.particles), st_.block_capacity);
      st_.particles = std::move(fresh);
      std::size_t back_capacity = 0;
      ParticleSoA<Scalar> fresh_back =
          arena_->template acquire<Scalar>(target, back_capacity);
      arena_->release(std::move(st_.back_buffer), st_.block_capacity);
      st_.back_buffer = std::move(fresh_back);
      st_.block_capacity = cap;
    } else if (target < old_n) {
      for (std::size_t i = 0; i < target; ++i) {
        const std::size_t src = spread_index(i, target, old_n);
        if (src != i) st_.particles.copy_from(st_.particles, i, src);
      }
      st_.particles.resize(target);
      st_.back_buffer.resize(target);
    } else {
      st_.particles.resize(target);
      st_.back_buffer.resize(target);
      for (std::size_t i = old_n; i < target; ++i) {
        st_.particles.copy_from(st_.particles, i, i % old_n);
      }
    }
    // The resample that preceded adaptation left every weight at 1;
    // subsampling/tiling preserves that, re-asserted for the new slots.
    std::fill(st_.particles.weight.begin(), st_.particles.weight.end(),
              Scalar(1.0f));
  }

  /// Source index for re-sizing: shrink = even stride over the old set
  /// (src ≥ dst, so in-place forward copies are safe), grow = tile.
  static std::size_t spread_index(std::size_t i, std::size_t new_n,
                                  std::size_t old_n) {
    if (new_n >= old_n) return i < old_n ? i : i % old_n;
    return i * old_n / new_n;
  }

  /// Raw storage re-size without content adaptation (restore path: the
  /// caller overwrites every particle right after).
  void resize_storage(std::size_t n) {
    if (arena_) {
      const std::size_t cls = ParticleArena::size_class(n);
      if (cls != st_.block_capacity) {
        arena_->release(std::move(st_.particles), st_.block_capacity);
        arena_->release(std::move(st_.back_buffer), st_.block_capacity);
        st_.particles = arena_->template acquire<Scalar>(n, st_.block_capacity);
        std::size_t back_capacity = 0;
        st_.back_buffer = arena_->template acquire<Scalar>(n, back_capacity);
        return;
      }
    }
    st_.particles.resize(n);
    st_.back_buffer.resize(n);
  }

  void release_blocks() {
    if (arena_ && st_.block_capacity > 0) {
      arena_->release(std::move(st_.particles), st_.block_capacity);
      arena_->release(std::move(st_.back_buffer), st_.block_capacity);
      st_.block_capacity = 0;
    }
    arena_.reset();
  }

  static void write_rng(map::SnapshotWriter& w, const Rng& rng) {
    const Rng::Snapshot s = rng.snapshot();
    for (const std::uint64_t word : s.state) w.u64(word);
    w.f64(s.cached);
    w.boolean(s.has_cached);
  }

  /// Refuses the all-zero xoshiro state: it yields 0 forever, and
  /// Rng::gaussians never accepts a polar candidate from it.
  static Rng read_rng(map::SnapshotReader& r) {
    Rng::Snapshot s;
    for (std::uint64_t& word : s.state) word = r.u64();
    if (s.state == std::array<std::uint64_t, 4>{}) {
      throw IoError("snapshot RNG state is all zero");
    }
    s.cached = r.f64();
    s.has_cached = r.boolean();
    Rng rng(0);
    rng.restore(s);
    return rng;
  }

  static auto scalar_bits(Scalar v) {
    if constexpr (std::is_same_v<Scalar, Half>) {
      return v.bits();
    } else {
      return std::bit_cast<std::uint32_t>(v);
    }
  }

  /// Weights spend nearly all their life uniform — every resample that
  /// draws rewrites them to exactly Scalar(1), and sessions snapshot
  /// between corrections — so the blob stores a constant run as a flag
  /// plus one value instead of n copies. Bit-exact in both encodings
  /// (the comparison is on the scalar's bit pattern, not its value).
  static void write_weights(map::SnapshotWriter& w,
                            const std::vector<Scalar>& values) {
    const bool constant =
        std::all_of(values.begin(), values.end(), [&](Scalar v) {
          return scalar_bits(v) == scalar_bits(values.front());
        });
    w.u8(constant ? 1 : 0);
    w.array(std::span(values).first(constant ? 1 : values.size()));
  }

  static void read_weights(map::SnapshotReader& r,
                           std::vector<Scalar>& values) {
    const std::uint8_t flag = r.u8();
    TOFMCL_EXPECTS(flag <= 1, "snapshot weight encoding flag must be 0 or 1");
    const bool constant = flag == 1;
    r.array(std::span(values).first(constant ? 1 : values.size()));
    if (constant) std::fill(values.begin() + 1, values.end(), values.front());
  }

  static void store(ParticleSoA<Scalar>& soa, std::size_t i, double x,
                    double y, double yaw, double w) {
    soa.x[i] = Scalar(static_cast<float>(x));
    soa.y[i] = Scalar(static_cast<float>(y));
    soa.yaw[i] = Scalar(static_cast<float>(yaw));
    soa.weight[i] = Scalar(static_cast<float>(w));
  }

  const Map* map_;
  MclConfig config_;
  Executor* executor_;
  ObservationModel observation_model_;
  BeamModelParams mixture_params_{};
  /// Everything the update cycle mutates (see filter_state.hpp).
  FilterState<Scalar> st_;
  /// Whether the last resample() ran the systematic draw rather than the
  /// degenerate-weight reset — precondition of adapt_particle_count().
  bool last_resample_drew_ = false;
  /// SIMD backend of the motion and observation sweeps (kernel_backend.hpp).
  kernels::KernelBackend backend_ = kernels::default_backend();
  /// View of the map's free-cell table (owned by MapResources).
  std::span<const Vec2> support_;
  double support_jitter_ = 0.0;
  std::shared_ptr<ParticleArena> arena_;
};

}  // namespace tofmcl::core
