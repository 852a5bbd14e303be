// serve_paced and serve_churn: localization as a service through
// serve::SessionManager (3 workers, 4 shards, pump_batch 16, queue 8).
//
// 1024 sessions replay flights over the office, warehouse and loop-corridor
// worlds (2 data seeds each, tracking init). Each session's input stream
// runs its recorded flight forward, then backward, then forward again
// (ping-pong), so a stream never ends and never jumps: the reversed flight
// is the same path flown back, with consistent odometry and ground truth.
//
// serve_paced: 128 fixed particles; every generation pushes a window of
// queue/2 inputs to every session, then pumps.
// serve_churn: a 1024-particle KLD-adaptive budget (floor 128); every
// generation pushes a window only to a rotating quarter of the sessions,
// pumps, then evict_idle(1) — so every session is snapshotted into the
// store between its bursts and restored by its next push. The store is a
// timing decorator around InMemorySnapshotStore.

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench.hpp"
#include "eval/metrics.hpp"
#include "serve/session_manager.hpp"
#include "stats.hpp"

namespace perfbench {

namespace serve = tofmcl::serve;

namespace {

constexpr std::size_t kSessions = 1024;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kShards = 4;
constexpr std::size_t kPumpBatch = 16;
constexpr std::size_t kQueue = 8;
constexpr std::size_t kWindow = kQueue / 2;
constexpr std::size_t kChurnGroups = 4;
/// Recorded flights per world: accuracy and memory average over this many
/// datasets, so their seed-to-seed spread stays small.
constexpr std::size_t kDataSeeds = 6;

/// Accuracy is scored over each session's first ticks only, so ate_m and
/// success_frac are a pure function of the seed (the loop keeps going
/// until every session got this far).
std::size_t accuracy_horizon(bool churn) { return churn ? 200 : 600; }

double us(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Times every put/take of the wrapped store; spans go to the current
/// tracer (main thread only), samples to guarded vectors.
class TimingStore final : public serve::SnapshotStore {
 public:
  struct Samples {
    std::vector<double> put_us, take_us, blob_bytes;
    std::size_t puts = 0, takes = 0;
  };

  void put(std::uint64_t id, std::vector<std::byte> blob) override {
    const double bytes = static_cast<double>(blob.size());
    Scope span(*tracer_, kSpanStorePut, span_id(id));
    const auto t0 = Clock::now();
    inner_->put(id, std::move(blob));
    const double t = us(t0);
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.put_us.push_back(t);
    samples_.blob_bytes.push_back(bytes);
    ++samples_.puts;
  }

  std::optional<std::vector<std::byte>> take(std::uint64_t id) override {
    Scope span(*tracer_, kSpanStoreTake, span_id(id));
    const auto t0 = Clock::now();
    auto blob = inner_->take(id);
    const double t = us(t0);
    if (blob) {
      std::lock_guard<std::mutex> lock(mutex_);
      samples_.take_us.push_back(t);
      ++samples_.takes;
    }
    return blob;
  }

  std::size_t count() const override { return inner_->count(); }
  std::size_t bytes() const override { return inner_->bytes(); }

  /// Bypasses timing and tracing (the post-loop accuracy read-back).
  std::optional<std::vector<std::byte>> take_untimed(std::uint64_t id) {
    return inner_->take(id);
  }

  /// Routes spans to `tracer` (null: none) and labels them with the
  /// loop's per-session tick counters.
  void attach(Tracer* tracer, const std::vector<std::size_t>* ticks) {
    tracer_ = tracer != nullptr ? tracer : &idle_tracer_;
    ticks_ = ticks;
  }

  Samples samples() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_;
  }

 private:
  std::uint64_t span_id(std::uint64_t session) const {
    return input_id(session, ticks_ != nullptr && session < ticks_->size()
                                 ? (*ticks_)[session]
                                 : 0);
  }

  std::shared_ptr<serve::InMemorySnapshotStore> inner_ =
      std::make_shared<serve::InMemorySnapshotStore>();
  Tracer idle_tracer_{false, span_names()};
  Tracer* tracer_ = &idle_tracer_;
  const std::vector<std::size_t>* ticks_ = nullptr;
  mutable std::mutex mutex_;
  Samples samples_;  ///< Guarded by mutex_.
};

struct ServingState {
  std::vector<eval::ReplaySource> sources;
  std::vector<std::vector<Batch>> streams;  ///< One per source.
  std::shared_ptr<TimingStore> store;
  std::unique_ptr<serve::SessionManager> mgr;
  double export_s = 0.0;
  double context_s = 0.0;  ///< First open per map (builds its context).
  std::vector<double> open_us;
};

ServingState build_serving(std::uint64_t seed, bool churn) {
  ServingState st;
  const auto t0 = Clock::now();
  eval::CampaignSpec spec;
  spec.worlds = {{eval::CampaignWorld::kOffice, 0, 3},
                 {eval::CampaignWorld::kWarehouse, 0, 2},
                 {eval::CampaignWorld::kLoopCorridor, 2, 1}};
  spec.inits = {{eval::InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.seeds_per_cell = kDataSeeds;
  spec.mcl.num_particles = churn ? 1024 : 128;
  spec.mcl.adaptive_particles = churn;
  spec.mcl.min_particles = 128;
  spec.master_seed = seed;
  eval::Campaign campaign(spec);
  eval::CampaignOptions prep;
  prep.threads = kWorkers;
  st.sources = campaign.export_replay_sources(prep);
  st.export_s = seconds_since(t0);
  for (const eval::ReplaySource& src : st.sources) {
    st.streams.push_back(batches_of(src.legs.front()));
  }

  st.store = std::make_shared<TimingStore>();
  serve::ServeOptions so;
  so.threads = kWorkers;
  so.shards = kShards;
  so.pump_batch = kPumpBatch;
  so.store = st.store;
  st.mgr = std::make_unique<serve::SessionManager>(so);
  for (const eval::ReplaySource& src : st.sources) {
    if (!st.mgr->has_map(src.map_key)) st.mgr->define_map(src.map_key, src.maps);
  }
  std::vector<std::string> opened;
  for (std::size_t id = 0; id < kSessions; ++id) {
    const eval::ReplaySource& src = st.sources[id % st.sources.size()];
    serve::SessionOptions opts;
    opts.config.precision = core::Precision::kFp32Qm;
    opts.config.mcl = spec.mcl;
    opts.config.mcl.seed = eval::campaign_mix(seed, 0x5e55u + id);
    opts.config.sensors = {src.front_tof, src.rear_tof};
    opts.queue_capacity = kQueue;
    opts.start = serve::StartPose{src.start_pose, 0.2, 0.2};
    const auto t = Clock::now();
    st.mgr->open_session(src.map_key, opts);
    const double dt = seconds_since(t);
    st.open_us.push_back(dt * 1e6);
    if (std::find(opened.begin(), opened.end(), src.map_key) == opened.end()) {
      opened.push_back(src.map_key);
      st.context_s += dt;
    }
  }
  return st;
}

struct LoopResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< Process CPU time (all threads) in the loop.
  std::size_t generations = 0;
  std::size_t pushes = 0;
  std::size_t corrections = 0;
  std::size_t saturated = 0, drop_signals = 0;
  std::size_t evicted = 0;
  std::vector<double> push_us, pump_ms, evict_ms;
  double active_sum = 0.0;
  std::size_t active_samples = 0;
  serve::ServeReport rep;
  TimingStore::Samples store;
  bool horizon_reached = false;
  double idle_bytes_per_session = 0.0;
  double peak_rss_mib = 0.0;
  // Accuracy read-back (after the loop).
  std::size_t scored = 0, successes = 0, nonfinite = 0;
  std::size_t dropped_frames = 0;
  double ate_sum = 0.0;
  double map_bytes = 0.0;
  /// Every correction's latency (the sessions' own recorders), us.
  std::vector<double> latency_us;
};

/// (Resident particle bytes of live sessions + parked snapshot bytes)
/// per session.
double idle_bytes_per_session(const serve::SessionManager& mgr) {
  std::size_t bytes = mgr.store()->bytes();
  for (std::size_t id = 0; id < kSessions; ++id) {
    if (mgr.session_live(id)) bytes += mgr.session(id).resident_particle_bytes();
  }
  return static_cast<double>(bytes) / static_cast<double>(kSessions);
}

const std::vector<Batch>& stream_of(const ServingState& st, std::size_t id) {
  return st.streams[id % st.streams.size()];
}

LoopResult serving_loop(ServingState& st, bool churn, double seconds,
                        Tracer& tr) {
  LoopResult r;
  serve::SessionManager& mgr = *st.mgr;
  std::vector<std::size_t> ticks(kSessions, 0);
  std::vector<double> idle_samples;
  st.store->attach(&tr, &ticks);
  const std::size_t horizon = accuracy_horizon(churn);
  {
    Scope workload(tr, kSpanWorkload, 0);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_s();
    for (std::size_t g = 0;; ++g) {
      // Memory figures cover the accuracy horizon only (a fixed amount of
      // work, so they do not depend on how fast the host ran): the idle
      // footprint is averaged over one sample per churn cycle, the
      // high-water mark read when every session got past the horizon.
      if (!r.horizon_reached) {
        if (*std::min_element(ticks.begin(), ticks.end()) >= horizon) {
          r.horizon_reached = true;
          r.peak_rss_mib = peak_rss_mib();
          r.idle_bytes_per_session = mean(idle_samples);
        } else if (g % kChurnGroups == 0) {
          idle_samples.push_back(idle_bytes_per_session(mgr));
        }
      }
      if (r.horizon_reached && seconds_since(t0) >= seconds) {
        r.cpu_s = process_cpu_s() - cpu0;
        r.wall_s = seconds_since(t0);
        r.generations = g;
        break;
      }
      Scope gen(tr, kSpanGeneration, g);
      const std::size_t group = churn ? g % kChurnGroups : 0;
      const std::size_t size = churn ? kSessions / kChurnGroups : kSessions;
      for (std::size_t id = group * size; id < (group + 1) * size; ++id) {
        const std::vector<Batch>& stream = stream_of(st, id);
        for (std::size_t w = 0; w < kWindow; ++w) {
          const std::size_t tick = ticks[id];
          const Batch& b = stream[pingpong(tick, stream.size())];
          serve::SessionInput in{static_cast<double>(tick), b.odometry,
                                 b.frames};
          serve::Admission adm;
          {
            Scope push(tr, kSpanPush, input_id(id, tick));
            const auto tp = Clock::now();
            adm = mgr.push(id, std::move(in));
            r.push_us.push_back(us(tp));
          }
          ++ticks[id];
          ++r.pushes;
          if (adm == serve::Admission::kSaturated) ++r.saturated;
          if (adm == serve::Admission::kDroppedOldest) ++r.drop_signals;
        }
      }
      {
        Scope pump(tr, kSpanPump, g);
        const auto tp = Clock::now();
        r.corrections += mgr.pump();
        r.pump_ms.push_back(us(tp) * 1e-3);
      }
      if (churn && tr.enabled()) {
        for (std::size_t id = group * size; id < (group + 1) * size; ++id) {
          r.active_sum +=
              static_cast<double>(mgr.session(id).active_particles());
          ++r.active_samples;
        }
      }
      if (churn) {
        Scope evict(tr, kSpanEvictIdle, g);
        const auto tp = Clock::now();
        r.evicted += mgr.evict_idle(1);
        r.evict_ms.push_back(us(tp) * 1e-3);
      }
    }
  }
  st.store->attach(nullptr, nullptr);
  r.rep = mgr.report();
  r.store = st.store->samples();

  // Accuracy read-back: every session's correction trace against the
  // ground truth of the ticks it replayed (evicted sessions are restored
  // from their blobs first; this is outside the measured loop).
  std::vector<std::string> mapped;
  for (std::size_t id = 0; id < kSessions; ++id) {
    if (!mgr.session_live(id)) {
      auto blob = st.store->take_untimed(id);
      if (blob) mgr.restore_session(id, *blob);
    }
    const serve::Session& s = mgr.session(id);
    for (const double v : s.latency().samples()) r.latency_us.push_back(v * 1e6);
    const std::vector<Batch>& stream = stream_of(st, id);
    std::vector<eval::ErrorSample> errors;
    for (const serve::CorrectionRecord& rec : s.trace()) {
      if (!finite_pose(rec.pose)) ++r.nonfinite;
      const auto tick = static_cast<std::size_t>(rec.t);
      if (tick >= horizon) continue;
      const Pose2& truth = stream[pingpong(tick, stream.size())].truth;
      errors.push_back({rec.t, (rec.pose.position - truth.position).norm(),
                        angle_dist(rec.pose.yaw, truth.yaw)});
    }
    const eval::RunMetrics m = eval::evaluate_run(errors);
    ++r.scored;
    if (m.success) {
      ++r.successes;
      r.ate_sum += m.ate_m;
    }
    r.dropped_frames += s.localizer().dropped_frames();
    if (std::find(mapped.begin(), mapped.end(), s.map_key()) == mapped.end()) {
      mapped.push_back(s.map_key());
      r.map_bytes += static_cast<double>(s.localizer().map_bytes());
    }
  }
  return r;
}

LoopFigures figures_of(const LoopResult& r, const std::string& tag,
                       Outcome& out) {
  LoopFigures f;
  const Timing c = timing(r.latency_us, tag + "correction", out);
  const Timing push = timing(r.push_us, tag + "push", out);
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
  f["idle_bytes_per_session"] = r.idle_bytes_per_session;
  return f;
}

void check_loop(const LoopResult& r, const LoopFigures& f, const Options& opt,
                const std::string& tag, Outcome& out) {
  out.check(tag + "poses_finite", r.nonfinite == 0,
            std::to_string(r.nonfinite) + " non-finite corrections");
  out.check(tag + "no_dropped_inputs",
            r.rep.dropped_inputs == 0 && r.drop_signals == 0,
            std::to_string(r.rep.dropped_inputs) + " dropped");
  out.check(tag + "ate_m_within_bound",
            f.at("ate_m") > 0.0 && f.at("ate_m") <= opt.ate_max,
            std::to_string(f.at("ate_m")) + " m, bound " +
                std::to_string(opt.ate_max));
  out.check(tag + "success_frac_within_bound",
            f.at("success_frac") >= opt.success_min,
            std::to_string(f.at("success_frac")) + ", bound " +
                std::to_string(opt.success_min));
  out.check(tag + "corrections_counted",
            r.rep.corrections == r.corrections && r.corrections > 0 &&
                r.latency_us.size() == r.corrections,
            std::to_string(r.rep.corrections) + " reported, " +
                std::to_string(r.corrections) + " pumped, " +
                std::to_string(r.latency_us.size()) + " latency samples");
  out.attempted += r.pushes;
  out.failed += r.rep.dropped_inputs + r.dropped_frames + r.nonfinite;
}

/// Mean self time of push spans that restored a session (their store
/// take is a child, so it is excluded), and the summed self time of the
/// evict_idle sweeps (store puts excluded): restore decoding and snapshot
/// encoding as the caller sees them.
struct RestoreEncode {
  double push_restore_self_us = 0.0;
  double evict_self_s = 0.0;
};

RestoreEncode restore_encode(const Tracer& tr) {
  const std::vector<Span>& spans = tr.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<char> restored(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.name == kSpanStoreTake && s.parent != kNoParent) {
      restored[s.parent] = 1;
    }
  }
  RestoreEncode re;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == kSpanPush && restored[i]) {
      sum += static_cast<double>(self[i]) * 1e-3;
      ++n;
    }
    if (spans[i].name == kSpanEvictIdle) {
      re.evict_self_s += static_cast<double>(self[i]) * 1e-9;
    }
  }
  re.push_restore_self_us = n > 0 ? sum / static_cast<double>(n) : 0.0;
  return re;
}

}  // namespace

void run_serving(const Options& opt, bool churn, Outcome& out) {
  out.threads = kWorkers + 1;
  out.workers = "SessionManager with 3 workers + main thread; 4 shards, "
                "pump_batch 16, queue 8, 1024 sessions";

  Setup setup;
  ServingState st;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    st = ServingState{};
    const Setup::Rep rep_timer(setup);
    st = build_serving(opt.seed, churn);
  }

  if (!opt.trace) {
    Tracer off(false, span_names());
    const LoopResult r = serving_loop(st, churn, opt.seconds, off);
    const LoopFigures f = figures_of(r, "", out);
    check_loop(r, f, opt, "", out);
    set_loop_metrics(f, nullptr, out);
    setup.report(out);
    out.metrics.set("peak_rss_mib", r.peak_rss_mib);
    out.notes.push_back("generations " + std::to_string(r.generations) +
                        ", pushes " + std::to_string(r.pushes) +
                        ", corrections " + std::to_string(r.corrections) +
                        ", evicted " + std::to_string(r.evicted));
    return;
  }

  // Traced run: an untraced loop and a traced loop of half the time each
  // (each on a fresh set-up), so the tracing overhead is measured in one
  // process.
  Tracer off(false, span_names());
  const LoopResult plain = serving_loop(st, churn, opt.seconds / 2, off);
  const LoopFigures fp = figures_of(plain, "untraced_", out);
  check_loop(plain, fp, opt, "untraced_", out);
  st = ServingState{};
  st = build_serving(opt.seed, churn);
  Tracer tr(true, span_names());
  const LoopResult r = serving_loop(st, churn, opt.seconds / 2, tr);
  const LoopFigures ft = figures_of(r, "traced_", out);
  check_loop(r, ft, opt, "traced_", out);
  set_loop_metrics(fp, &ft, out);
  set_trace_metrics(tr, r.wall_s, out);
  tr.write(opt.out_dir + "/" + opt.workload + ".spans.tsv");

  const OnboardData onboard = build_onboard(opt.seed);
  const std::uint64_t probe_seed = onboard_filter_seed(opt.seed, 0, 0);
  const ProbeFlight onboard_flight = onboard_probe_flight(onboard);
  const ProbeResult p4096 = run_probe(onboard_flight, probe_seed,
                                      {kOnboardParticles, true, kWorkers});
  const ProbeResult p128 = run_probe(onboard_flight, probe_seed, {128, false, 0});
  set_probe_metrics(p4096, p128, kWorkers + 1, out);
  report_probe(p4096, "onboard flight 0", kWorkers + 1, out);
  report_probe(p128, "onboard flight 0", 1, out);
  // The filter share of this workload's corrections: session 0's own
  // flight, context and particle budget (128 fixed, or the churn sessions'
  // adaptive 1024).
  const ProbeResult session_probe = run_probe(
      {&st.sources.front().legs.front(), &st.streams.front(),
       st.mgr->session(0).localizer().context()},
      probe_seed, {churn ? std::size_t{1024} : std::size_t{128}, false, 0});
  report_probe(session_probe, "session 0's flight", 1, out);
  out.check("probe_session_matches_localizer", session_probe.matches_localizer,
            "serial ParticleFilter vs serial Localizer, final pose bitwise");

  std::vector<const std::vector<Batch>*> streams;
  for (const std::vector<Batch>& s : st.streams) streams.push_back(&s);
  const ExtractStats ex =
      time_extraction(streams, st.mgr->session(0).localizer().context()->config());

  const serve::ServeReport& rep = r.rep;
  const double service_s = rep.latency.mean * static_cast<double>(rep.latency.count);
  const double pump_wall_s = [&] {
    double s = 0.0;
    for (const double ms : r.pump_ms) s += ms * 1e-3;
    return s;
  }();
  // The main thread helps drain the pump's task group, so kWorkers + 1 threads
  // run pump tasks.
  const double capacity_s = pump_wall_s * static_cast<double>(kWorkers + 1);
  const RestoreEncode re = restore_encode(tr);

  setup.report(out);
  MetricSink& m = out.metrics;
  m.set("eval.export_sources_s", st.export_s);
  m.set("core.build_context_s", st.context_s);
  m.set("serve.open_session_us", median(st.open_us));
  m.set("sensor.extract_beams_us_per_batch", ex.us_per_batch);
  m.set("sensor.beams_per_batch", ex.beams_per_batch);
  m.set("localizer.on_frames_us.corrected", ft.at("correction_p50_us"));
  // Gated (motion-only) on_frames calls run inside pool tasks and are not
  // visible from outside; the 128-particle probe's serial Localizer on an
  // onboard flight stands in.
  m.set("localizer.on_frames_us.gated", p128.localizer_gated_us_p50);
  m.set("localizer.gate_pass_ratio",
        static_cast<double>(rep.corrections) /
            static_cast<double>(rep.processed_inputs));
  m.set("localizer.dropped_frames", static_cast<double>(r.dropped_frames));
  m.set("pf.active_particles_mean",
        churn ? (r.active_samples > 0
                     ? r.active_sum / static_cast<double>(r.active_samples)
                     : 0.0)
              : static_cast<double>(rep.active_particles) /
                    static_cast<double>(std::max<std::size_t>(1, rep.live_sessions)));
  m.set("serve.pump_overhead_us_per_correction",
        (capacity_s - service_s) / static_cast<double>(rep.corrections) * 1e6);
  m.set("serve.pump_busy_frac", service_s / capacity_s);
  std::vector<double> push = r.push_us;
  m.set("serve.push_us.p50", median(push));
  m.set("serve.push_us.p99", supported_quantile(push, 0.99).value_or(0.0));
  m.set("serve.pump_ms.p50", median(r.pump_ms));
  m.set("serve.pump_ms.max", max_of(r.pump_ms));
  m.set("serve.saturated_signals", static_cast<double>(r.saturated));
  m.set("serve.dropped_inputs", static_cast<double>(rep.dropped_inputs));
  m.set("serve.evict_sweep_ms.p50", median(r.evict_ms));
  m.set("serve.evict_sweep_ms.max", max_of(r.evict_ms));
  m.set("serve.evicted", static_cast<double>(r.evicted));
  m.set("serve.restored", static_cast<double>(r.store.takes));
  m.set("serve.push_restore_self_us", re.push_restore_self_us);
  m.set("serve.evict_encode_us_per_session",
        r.evicted > 0 ? re.evict_self_s * 1e6 / static_cast<double>(r.evicted)
                      : 0.0);
  std::vector<double> put = r.store.put_us, take = r.store.take_us;
  m.set("store.put_us.p50", median(put));
  m.set("store.put_us.p99", supported_quantile(put, 0.99).value_or(0.0));
  m.set("store.take_us.p50", median(take));
  m.set("store.take_us.p99", supported_quantile(take, 0.99).value_or(0.0));
  m.set("store.blob_bytes.mean", mean(r.store.blob_bytes));
  m.set("store.blob_bytes.max", max_of(r.store.blob_bytes));
  m.set("store.puts", static_cast<double>(r.store.puts));
  m.set("store.takes", static_cast<double>(r.store.takes));
  m.set("map.bytes", r.map_bytes);
  m.set("serve.resident_particle_bytes",
        static_cast<double>(rep.resident_particle_bytes));
  m.set("arena.pooled_bytes", static_cast<double>(rep.arena_pooled_bytes));
  const double p50 = ft.at("correction_p50_us");
  m.set("split.correction_p50_us", p50);
  m.set("split.extract_us", ex.us_per_batch);
  const double filter_us = session_probe.filter_us_p50;
  m.set("split.filter_us", filter_us);
  m.set("split.unattributed_us", p50 - ex.us_per_batch - filter_us);
  char line[256];
  std::snprintf(line, sizeof line,
                "correction p50 %.1f us = extraction %.1f + filter phases "
                "(probe on session 0's flight, N=%zu%s) %.1f + unattributed "
                "%.1f",
                p50, ex.us_per_batch, session_probe.particles,
                churn ? " adaptive" : "", filter_us,
                p50 - ex.us_per_batch - filter_us);
  out.notes.emplace_back(line);
}

}  // namespace perfbench
