// onboard_global: the paper's on-board setting. One drone on the large
// maze (31.2 m²), global init, Fp32Qm, 4096 particles in 8 chunks on a
// 3-worker pool plus the main thread, which replays the standard
// flight plans back to back through Localizer::on_odometry / on_frames in
// a closed loop; each flight starts a fresh Localizer from a spread cloud.

#include <optional>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "core/executor.hpp"
#include "eval/metrics.hpp"
#include "stats.hpp"

namespace perfbench {

using tofmcl::ThreadPool;

namespace {

constexpr std::size_t kWorkers = 3;
/// Accuracy is scored over the first passes only, so ate_m and
/// success_frac are a pure function of the seed (the loop keeps going
/// until these passes are done, whatever --seconds says).
constexpr std::size_t kAccuracyPasses = 3;
constexpr std::uint64_t kLargeMazeSeed = 2023;  ///< The paper's map.

struct LoopResult {
  double wall_s = 0.0;
  std::size_t passes = 0;
  std::size_t batches = 0;
  std::size_t corrections = 0;
  std::size_t dropped_frames = 0;
  std::size_t nonfinite = 0;
  std::vector<double> corrected_us, gated_us, all_us, open_us;
  std::size_t scored = 0, successes = 0;
  double ate_sum = 0.0;
  std::size_t resident_bytes = 0;
  std::size_t map_bytes = 0;
  double peak_rss_mib = 0.0;
  double cpu_s = 0.0;  ///< Process CPU time (all threads) in the loop.
};

LoopResult replay_loop(const OnboardData& d, std::uint64_t seed,
                       double seconds, Tracer& tr) {
  LoopResult r;
  ThreadPool pool(kWorkers);
  core::ThreadPoolExecutor exec(pool);
  Scope workload(tr, kSpanWorkload, 0);
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  for (std::size_t pass = 0;; ++pass) {
    for (std::size_t f = 0; f < d.flights.size(); ++f) {
      // Memory is read when the scored passes are done: a fixed amount of
      // work, so the figure does not depend on how fast the host ran.
      if (pass == kAccuracyPasses && f == 0) r.peak_rss_mib = peak_rss_mib();
      if (pass >= kAccuracyPasses && seconds_since(t0) >= seconds) {
        r.cpu_s = process_cpu_s() - cpu0;
        r.wall_s = seconds_since(t0);
        r.passes = pass;
        return r;
      }
      const Flight& flight = d.flights[f];
      const std::uint64_t fid = pass * 1000 + f;
      Scope flight_span(tr, kSpanFlight, fid);

      core::SessionKnobs knobs;
      knobs.seed = onboard_filter_seed(seed, pass, f);
      knobs.num_particles = kOnboardParticles;
      const auto open_span = tr.begin(kSpanOpen, fid);
      const auto t_open = Clock::now();
      core::Localizer loc(d.ctx, knobs, exec);
      loc.on_odometry(flight.leg->odometry.front().pose);
      loc.start_global();
      r.open_us.push_back(seconds_since(t_open) * 1e6);
      tr.end(open_span);

      std::vector<eval::ErrorSample> errors;
      std::size_t o = 0;
      for (std::size_t b = 0; b < flight.batches.size(); ++b) {
        const Batch& batch = flight.batches[b];
        while (o < batch.odom_end) loc.on_odometry(flight.leg->odometry[o++].pose);
        bool corrected = false;
        double us = 0.0;
        {
          Scope s(tr, kSpanOnFrames, input_id(fid, b));
          const auto tb = Clock::now();
          corrected = loc.on_frames(batch.frames);
          us = seconds_since(tb) * 1e6;
        }
        ++r.batches;
        r.all_us.push_back(us);
        if (!corrected) {
          r.gated_us.push_back(us);
          continue;
        }
        ++r.corrections;
        r.corrected_us.push_back(us);
        const core::PoseEstimate& est = loc.estimate();
        if (!finite_pose(est.pose)) ++r.nonfinite;
        if (est.valid && pass < kAccuracyPasses) {
          errors.push_back({batch.stamp,
                            (est.pose.position - batch.truth.position).norm(),
                            angle_dist(est.pose.yaw, batch.truth.yaw)});
        }
      }
      r.dropped_frames += loc.dropped_frames();
      r.resident_bytes = loc.resident_particle_bytes();
      r.map_bytes = loc.map_bytes();
      if (pass < kAccuracyPasses) {
        const eval::RunMetrics m = eval::evaluate_run(errors);
        ++r.scored;
        if (m.success) {
          ++r.successes;
          r.ate_sum += m.ate_m;
        }
      }
    }
  }
}

LoopFigures figures_of(const LoopResult& r, const std::string& tag,
                       Outcome& out) {
  LoopFigures f;
  const Timing c = timing(r.corrected_us, tag + "correction", out);
  const Timing push = timing(r.all_us, tag + "on_frames", out);
  f["corrections_per_s"] = static_cast<double>(r.corrections) / r.wall_s;
  f["cpu_us_per_correction"] =
      r.cpu_s * 1e6 / static_cast<double>(r.corrections);
  f["correction_p50_us"] = c.p50;
  f["correction_p90_us"] = c.p90;
  f["correction_p99_us"] = c.p99;
  f["push_p90_us"] = push.p90;
  f["push_p99_us"] = push.p99;
  f["ate_m"] = r.successes > 0 ? r.ate_sum / static_cast<double>(r.successes)
                               : 0.0;
  f["success_frac"] =
      static_cast<double>(r.successes) / static_cast<double>(r.scored);
  f["idle_bytes_per_session"] = static_cast<double>(r.resident_bytes);
  return f;
}

void check_loop(const LoopResult& r, const LoopFigures& f, const Options& opt,
                const std::string& tag, Outcome& out) {
  out.check(tag + "poses_finite", r.nonfinite == 0,
            std::to_string(r.nonfinite) + " non-finite corrections");
  out.check(tag + "ate_m_within_bound", f.at("ate_m") > 0.0 &&
                                            f.at("ate_m") <= opt.ate_max,
            std::to_string(f.at("ate_m")) + " m, bound " +
                std::to_string(opt.ate_max));
  out.check(tag + "success_frac_within_bound",
            f.at("success_frac") >= opt.success_min,
            std::to_string(f.at("success_frac")) + ", bound " +
                std::to_string(opt.success_min));
  out.attempted += r.batches;
  out.failed += r.dropped_frames + r.nonfinite;
}

}  // namespace

std::uint64_t onboard_filter_seed(std::uint64_t seed, std::size_t pass,
                                  std::size_t flight) {
  return eval::campaign_mix(eval::campaign_mix(seed ^ 0x0b0a4dULL, pass),
                            flight);
}

std::vector<Batch> batches_of(const sim::Sequence& leg) {
  std::vector<Batch> out;
  std::size_t frame_idx = 0;
  for (std::size_t o = 0; o < leg.odometry.size(); ++o) {
    const sim::StateSample& odom = leg.odometry[o];
    while (frame_idx < leg.frames.size() &&
           leg.frames[frame_idx].timestamp_s <= odom.t) {
      Batch b;
      b.stamp = leg.frames[frame_idx].timestamp_s;
      b.odom_end = o + 1;
      b.odometry = odom.pose;
      while (frame_idx < leg.frames.size() &&
             leg.frames[frame_idx].timestamp_s == b.stamp) {
        b.frames.push_back(leg.frames[frame_idx++]);
      }
      b.truth = sim::interpolate_pose(leg.ground_truth, b.stamp);
      out.push_back(std::move(b));
    }
  }
  return out;
}

OnboardData build_onboard(std::uint64_t seed) {
  OnboardData d;
  const auto t0 = Clock::now();
  eval::CampaignSpec spec;
  spec.worlds.clear();
  for (std::size_t plan = 0; plan < sim::standard_flight_plans().size();
       ++plan) {
    spec.worlds.push_back(
        {eval::CampaignWorld::kLargeMaze, plan, kLargeMazeSeed});
  }
  spec.inits = {{eval::InitSpec::Mode::kGlobal}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.seeds_per_cell = 4;
  spec.mcl.num_particles = kOnboardParticles;
  spec.mcl.chunks = 8;
  spec.master_seed = seed;
  eval::Campaign campaign(spec);
  eval::CampaignOptions prep;
  prep.threads = kWorkers;
  d.sources = campaign.export_replay_sources(prep);
  d.export_s = seconds_since(t0);

  const auto t1 = Clock::now();
  core::LocalizerConfig lc;
  lc.precision = core::Precision::kFp32Qm;
  lc.mcl = spec.mcl;
  lc.sensors = {d.sources.front().front_tof, d.sources.front().rear_tof};
  d.ctx = core::build_scoring_context(d.sources.front().maps, lc);
  d.context_s = seconds_since(t1);

  for (const eval::ReplaySource& src : d.sources) {
    d.flights.push_back({&src.legs.front(), batches_of(src.legs.front())});
  }
  return d;
}

void run_onboard(const Options& opt, Outcome& out) {
  out.threads = kWorkers + 1;
  out.workers = "ThreadPoolExecutor with 3 workers + main thread; 8 chunks";

  Setup setup;
  OnboardData data;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    data = OnboardData{};
    const Setup::Rep rep_timer(setup);
    data = build_onboard(opt.seed);
  }

  if (!opt.trace) {
    Tracer off(false, span_names());
    const LoopResult r = replay_loop(data, opt.seed, opt.seconds, off);
    const LoopFigures f = figures_of(r, "", out);
    check_loop(r, f, opt, "", out);
    set_loop_metrics(f, nullptr, out);
    setup.report(out);
    out.metrics.set("peak_rss_mib", r.peak_rss_mib);
    out.notes.push_back("passes " + std::to_string(r.passes) + ", flights/pass " +
                        std::to_string(data.flights.size()) + ", corrections " +
                        std::to_string(r.corrections));
    return;
  }

  // Traced run: an untraced loop and a traced loop of half the time each,
  // so the tracing overhead is measured in one process.
  Tracer off(false, span_names());
  const LoopResult plain = replay_loop(data, opt.seed, opt.seconds / 2, off);
  const LoopFigures fp = figures_of(plain, "untraced_", out);
  check_loop(plain, fp, opt, "untraced_", out);
  Tracer tr(true, span_names());
  const LoopResult r = replay_loop(data, opt.seed, opt.seconds / 2, tr);
  const LoopFigures ft = figures_of(r, "traced_", out);
  check_loop(r, ft, opt, "traced_", out);
  set_loop_metrics(fp, &ft, out);
  set_trace_metrics(tr, r.wall_s, out);
  tr.write(opt.out_dir + "/" + opt.workload + ".spans.tsv");

  const std::uint64_t probe_seed = onboard_filter_seed(opt.seed, 0, 0);
  const ProbeFlight probe_flight = onboard_probe_flight(data);
  const ProbeResult p4096 =
      run_probe(probe_flight, probe_seed, {kOnboardParticles, true, kWorkers});
  const ProbeResult p128 = run_probe(probe_flight, probe_seed, {128, false, 0});
  set_probe_metrics(p4096, p128, kWorkers + 1, out);
  report_probe(p4096, "onboard flight 0", kWorkers + 1, out);
  report_probe(p128, "onboard flight 0", 1, out);

  std::vector<const std::vector<Batch>*> flights;
  for (const Flight& f : data.flights) flights.push_back(&f.batches);
  const ExtractStats ex = time_extraction(flights, data.ctx->config());

  setup.report(out);
  MetricSink& m = out.metrics;
  m.set("eval.export_sources_s", data.export_s);
  m.set("core.build_context_s", data.context_s);
  m.set("serve.open_session_us", median(r.open_us));
  m.set("sensor.extract_beams_us_per_batch", ex.us_per_batch);
  m.set("sensor.beams_per_batch", ex.beams_per_batch);
  m.set("localizer.on_frames_us.corrected", median(r.corrected_us));
  m.set("localizer.on_frames_us.gated", median(r.gated_us));
  m.set("localizer.gate_pass_ratio", static_cast<double>(r.corrections) /
                                         static_cast<double>(r.batches));
  m.set("localizer.dropped_frames", static_cast<double>(r.dropped_frames));
  m.set("pf.active_particles_mean", static_cast<double>(kOnboardParticles));
  m.set("map.bytes", static_cast<double>(r.map_bytes));
  m.set("serve.resident_particle_bytes", static_cast<double>(r.resident_bytes));
  m.set("arena.pooled_bytes",
        static_cast<double>(data.ctx->arena()->stats().pooled_bytes));
  const double p50 = median(r.corrected_us);
  m.set("split.correction_p50_us", p50);
  m.set("split.extract_us", ex.us_per_batch);
  // The pooled correction's filter share: the serial phase cost divided
  // by the measured pool speedup on the same inputs.
  const double pooled_filter_us =
      p4096.filter_us_p50 * p4096.localizer_correction_s /
      p4096.serial_correction_s;
  m.set("split.filter_us", pooled_filter_us);
  m.set("split.unattributed_us", p50 - ex.us_per_batch - pooled_filter_us);
  // No serving layer in this workload.
  for (const char* name :
       {"serve.pump_overhead_us_per_correction", "serve.pump_busy_frac",
        "serve.push_us.p50", "serve.push_us.p99", "serve.pump_ms.p50",
        "serve.pump_ms.max", "serve.saturated_signals", "serve.dropped_inputs",
        "serve.evict_sweep_ms.p50", "serve.evict_sweep_ms.max", "serve.evicted",
        "serve.restored", "serve.push_restore_self_us",
        "serve.evict_encode_us_per_session", "store.put_us.p50",
        "store.put_us.p99", "store.take_us.p50", "store.take_us.p99",
        "store.blob_bytes.mean", "store.blob_bytes.max", "store.puts",
        "store.takes"}) {
    m.set(name, 0.0);
  }
}

}  // namespace perfbench
