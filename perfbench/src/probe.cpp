// Host Table I / Fig 10 phase probe, beam-extraction timing, and the
// per-layer metrics derived from them.
//
// The probe replays one recorded flight (the first onboard_global flight,
// or a serving session's own), with the same (odometry delta, beams)
// stream, map, LUT and configuration the Localizer sees, through a SerialExecutor ParticleFilter, timing each public phase
// call. The Localizer's own gating is mirrored step by step, so the
// probe's final pose must equal a Localizer's on the same flight bit for
// bit (a check), and the same flight through a pooled Localizer gives the
// host's fork-join speedup on identical inputs.

#include <cmath>
#include <cstdio>
#include <optional>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/executor.hpp"
#include "platform/gap9_timing.hpp"
#include "stats.hpp"

namespace perfbench {

namespace platform = tofmcl::platform;
using tofmcl::ThreadPool;

namespace {

/// The Localizer's frame filter: a configured sensor id, matching mode
/// and a full zone payload; everything else is dropped.
const sensor::TofSensorConfig* sensor_for(const sensor::TofFrame& frame,
                                          const core::LocalizerConfig& cfg) {
  const auto zones = static_cast<std::size_t>(frame.side()) *
                     static_cast<std::size_t>(frame.side());
  for (const sensor::TofSensorConfig& s : cfg.sensors) {
    if (s.sensor_id == frame.sensor_id) {
      return frame.mode == s.mode && frame.zones.size() == zones ? &s
                                                                 : nullptr;
    }
  }
  return nullptr;
}

std::vector<sensor::Beam> extract(const Batch& batch,
                                  const core::LocalizerConfig& cfg) {
  std::vector<sensor::Beam> beams;
  for (const sensor::TofFrame& frame : batch.frames) {
    if (const sensor::TofSensorConfig* s = sensor_for(frame, cfg)) {
      const auto fb = sensor::extract_beams(frame, *s, cfg.extraction);
      beams.insert(beams.end(), fb.begin(), fb.end());
    }
  }
  return beams;
}

double us(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

}  // namespace

ExtractStats time_extraction(
    const std::vector<const std::vector<Batch>*>& flights,
    const core::LocalizerConfig& config) {
  std::vector<double> per_batch;
  double beams = 0.0;
  for (const std::vector<Batch>* batches : flights) {
    for (const Batch& b : *batches) {
      const auto t0 = Clock::now();
      beams += static_cast<double>(extract(b, config).size());
      per_batch.push_back(us(t0));
    }
  }
  ExtractStats s;
  s.us_per_batch = median(per_batch);
  s.beams_per_batch = per_batch.empty()
                          ? 0.0
                          : beams / static_cast<double>(per_batch.size());
  return s;
}

ProbeFlight onboard_probe_flight(const OnboardData& data) {
  return {data.flights.front().leg, &data.flights.front().batches, data.ctx};
}

ProbeResult run_probe(const ProbeFlight& flight, std::uint64_t seed,
                      const ProbeSpec& spec) {
  const std::size_t particles = spec.particles;
  const bool global = spec.global;
  const sim::Sequence& leg = *flight.leg;
  const std::vector<Batch>& batches = *flight.batches;
  const std::shared_ptr<const core::ScoringContext>& ctx = flight.ctx;
  const core::MapResources& maps = ctx->maps();
  const core::LocalizerConfig& cfg = ctx->config();
  core::MclConfig mcl = cfg.mcl;
  mcl.seed = seed;
  mcl.num_particles = particles;
  const Pose2 start = leg.ground_truth.front().pose;

  ProbeResult p;
  p.particles = particles;
  p.adaptive = mcl.adaptive_particles;
  std::vector<double> mo, mot, res, pose, adapt, filter, extract_us;
  double beams_total = 0.0, gated_total = 0.0, particle_beams = 0.0,
         mo_total_s = 0.0;

  core::SerialExecutor serial;
  core::ParticleFilter<core::Fp32QmTraits> pf(
      *maps.quantized_map, mcl, serial,
      core::LutObservationModel(*maps.quantized_map, *maps.lut), ctx->arena());
  if (global) {
    pf.init_uniform(maps.free_cells, maps.cell_jitter);
  } else {
    pf.init_gaussian(start, 0.2, 0.2);
    pf.set_injection_support(maps.free_cells, maps.cell_jitter);
  }
  Pose2 current = leg.odometry.front().pose;
  Pose2 last_motion = current;
  Pose2 gate = current;
  const double n = static_cast<double>(particles);
  std::size_t o = 0;
  for (const Batch& b : batches) {
    while (o < b.odom_end) current = leg.odometry[o++].pose;
    auto t = Clock::now();
    const std::vector<sensor::Beam> beams = extract(b, cfg);
    const double ex = us(t);
    extract_us.push_back(ex);
    const Pose2 delta = last_motion.between(current);
    last_motion = current;
    const Pose2 gd = gate.between(current);
    if (gd.position.norm() < mcl.gate_dxy &&
        std::abs(gd.yaw) < mcl.gate_dtheta) {
      t = Clock::now();
      pf.motion_update(delta);
      mot.push_back(us(t));
      continue;
    }
    t = Clock::now();
    pf.motion_observation_update(delta, beams);
    const double t_mo = us(t);
    t = Clock::now();
    pf.resample();
    const double t_res = us(t);
    t = Clock::now();
    pf.compute_pose();
    const double t_pose = us(t);
    t = Clock::now();
    pf.adapt_particle_count();
    const double t_adapt = us(t);
    gate = current;
    ++p.corrections;
    mo.push_back(t_mo);
    res.push_back(t_res);
    pose.push_back(t_pose);
    adapt.push_back(t_adapt);
    filter.push_back(t_mo + t_res + t_pose + t_adapt);
    p.serial_correction_s += (ex + t_mo + t_res + t_pose + t_adapt) * 1e-6;
    mo_total_s += t_mo * 1e-6;
    beams_total += static_cast<double>(pf.workload().beams);
    gated_total += static_cast<double>(pf.workload().gated_beams);
    particle_beams += n * static_cast<double>(pf.workload().beams);
  }
  p.motion_obs_ns = median(mo) * 1e3 / n;
  p.motion_ns = median(mot) * 1e3 / n;
  p.resample_ns = median(res) * 1e3 / n;
  p.pose_ns = median(pose) * 1e3 / n;
  p.adapt_ns = median(adapt) * 1e3 / n;
  p.filter_us_p50 = median(filter);
  p.extract_us_p50 = median(extract_us);
  p.gated_beam_frac = beams_total > 0.0 ? gated_total / beams_total : 0.0;
  p.particle_beams_per_s = mo_total_s > 0.0 ? particle_beams / mo_total_s : 0.0;

  // The same flight through the public Localizer API.
  std::optional<ThreadPool> pool;
  core::SerialExecutor loc_serial;
  std::optional<core::ThreadPoolExecutor> pooled;
  if (spec.pool_workers > 0) {
    pool.emplace(spec.pool_workers);
    pooled.emplace(*pool);
  }
  core::Executor& exec =
      pooled ? static_cast<core::Executor&>(*pooled) : loc_serial;
  core::SessionKnobs knobs;
  knobs.seed = seed;
  knobs.num_particles = particles;
  core::Localizer loc(ctx, knobs, exec);
  loc.on_odometry(leg.odometry.front().pose);
  if (global) {
    loc.start_global();
  } else {
    loc.start_at(start, 0.2, 0.2);
  }
  std::vector<double> corrected, gated;
  o = 0;
  for (const Batch& b : batches) {
    while (o < b.odom_end) loc.on_odometry(leg.odometry[o++].pose);
    const auto t = Clock::now();
    const bool c = loc.on_frames(b.frames);
    (c ? corrected : gated).push_back(us(t));
  }
  for (const double c : corrected) p.localizer_correction_s += c * 1e-6;
  p.localizer_corrected_us_p50 = median(corrected);
  p.localizer_gated_us_p50 = median(gated);
  const Pose2 a = pf.estimate().pose;
  const Pose2 l = loc.estimate().pose;
  p.matches_localizer = corrected.size() == p.corrections && a.x() == l.x() &&
                        a.y() == l.y() && a.yaw == l.yaw;
  return p;
}

void set_probe_metrics(const ProbeResult& p4096, const ProbeResult& p128,
                       std::size_t pool_threads, Outcome& out) {
  MetricSink& m = out.metrics;
  m.set("pf.motion_obs_ns_per_particle", p4096.motion_obs_ns);
  m.set("pf.motion_ns_per_particle", p4096.motion_ns);
  m.set("pf.resample_ns_per_particle", p4096.resample_ns);
  m.set("pf.pose_ns_per_particle", p4096.pose_ns);
  m.set("pf.adapt_ns_per_particle", p4096.adapt_ns);
  m.set("pf.gated_beam_frac", p4096.gated_beam_frac);
  m.set("pf128.motion_obs_ns_per_particle", p128.motion_obs_ns);
  m.set("pf128.motion_ns_per_particle", p128.motion_ns);
  m.set("pf128.resample_ns_per_particle", p128.resample_ns);
  m.set("pf128.pose_ns_per_particle", p128.pose_ns);
  m.set("pf128.adapt_ns_per_particle", p128.adapt_ns);
  m.set("kernels.particle_beams_per_s", p4096.particle_beams_per_s);
  const double speedup =
      p4096.serial_correction_s / p4096.localizer_correction_s;
  m.set("pool.speedup", speedup);
  m.set("pool.efficiency", speedup / static_cast<double>(pool_threads));
  out.check("probe4096_matches_localizer", p4096.matches_localizer,
            "serial ParticleFilter vs pooled Localizer, final pose bitwise");
  out.check("probe128_matches_localizer", p128.matches_localizer,
            "serial ParticleFilter vs serial Localizer, final pose bitwise");
}

void report_probe(const ProbeResult& p, const char* flight,
                  std::size_t pool_threads, Outcome& out) {
  const platform::Gap9TimingModel model = platform::calibrated_timing_model();
  const std::size_t n = p.particles;
  const platform::Placement place =
      n >= 4096 ? platform::Placement::kL2 : platform::Placement::kL1;
  const auto gap9 = [&](platform::Phase ph, std::size_t cores) {
    return model.phase_ns_per_particle(ph, n, cores, place, 400.0);
  };
  using platform::Phase;
  char line[512];
  std::snprintf(
      line, sizeof line,
      "host Table I, %s, N=%zu%s, serial, ns/particle (median call): "
      "motion+obs %.1f | motion-only %.1f | resample %.1f | pose %.1f | "
      "adapt %.2f",
      flight, n, p.adaptive ? " (adaptive, floor 128)" : "", p.motion_obs_ns, p.motion_ns, p.resample_ns, p.pose_ns, p.adapt_ns);
  out.notes.emplace_back(line);
  std::snprintf(
      line, sizeof line,
      "GAP9 model Table I, N=%zu, %s @400 MHz, ns/particle 1 core / 8 cores: "
      "observation %.1f/%.1f | motion %.1f/%.1f | resampling %.1f/%.1f | "
      "pose %.1f/%.1f | update_ns(8 cores) %.0f",
      n, place == platform::Placement::kL2 ? "L2" : "L1",
      gap9(Phase::kObservation, 1), gap9(Phase::kObservation, 8),
      gap9(Phase::kMotion, 1), gap9(Phase::kMotion, 8),
      gap9(Phase::kResampling, 1), gap9(Phase::kResampling, 8),
      gap9(Phase::kPoseComputation, 1), gap9(Phase::kPoseComputation, 8),
      model.update_ns(n, 8, place, 400.0));
  out.notes.emplace_back(line);
  std::snprintf(
      line, sizeof line,
      "host correction, N=%zu: serial filter p50 %.1f us, extraction p50 "
      "%.2f us, Localizer(%zu thread%s) corrected p50 %.1f us, gated p50 "
      "%.1f us; host Fig 10 speedup %.2fx (serial / Localizer, %zu "
      "corrections) vs GAP9 model 8-core total %.2fx",
      n, p.filter_us_p50, p.extract_us_p50, pool_threads,
      pool_threads == 1 ? "" : "s", p.localizer_corrected_us_p50,
      p.localizer_gated_us_p50,
      p.serial_correction_s / p.localizer_correction_s, p.corrections,
      model.total_speedup(n, 8, place));
  out.notes.emplace_back(line);
}

}  // namespace perfbench
