// Serving-latency bench: localization-as-a-service at four-digit session
// counts (the ROADMAP's "heavy traffic" north star, measured end to end).
//
// Generates campaign datasets (office + warehouse + loop corridor by
// default; the small maze in --smoke mode), exports them as replay
// sources, then opens N serve::SessionManager sessions sharing ONE
// immutable MapResources per world. Every session replays its source's
// frame stream through the bounded admission-controlled queue; the pump
// multiplexes all sessions over the thread pool with one task per
// map-affine batch of --pump-batch busy sessions. Reported:
// p50/p99/p999 per-correction latency (per map and
// global), corrections/s, processed/dropped inputs and the idle
// footprint. The benchmark of record for serving is perfbench's
// serve_paced / serve_churn; this bench is the CI smoke and the source
// of the ServeGolden.SmokeBattery trace.
//
// --overload pushes each session's whole stream before a single pump, so
// drop-oldest admission control actually fires; the default paced mode
// pushes in windows smaller than the queue so nothing is lost.
//
// --trace dumps the hexfloat per-session correction trace; with --smoke
// its FNV-1a is the committed digest ServeGolden.SmokeBattery checks.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "eval/campaign.hpp"
#include "serve/session_manager.hpp"

using namespace tofmcl;

namespace {

struct Args {
  std::size_t sessions = 1024;
  std::size_t threads = 4;
  std::size_t shards = 1;      ///< Manager slot shards (1 = pre-shard path).
  std::size_t pump_batch = 16; ///< Busy sessions per pump task.
  std::size_t particles = 128;
  std::size_t min_particles = 128;  ///< Adaptive-mode shrink floor.
  std::size_t ticks = 40;        ///< Frame-batch inputs per session.
  std::size_t queue = 8;         ///< Session queue capacity.
  bool smoke = false;
  bool overload = false;
  bool adaptive = false;         ///< KLD-adaptive particle counts.
  /// Idle deadline in pump generations; 0 disables the eviction tail.
  std::size_t evict_idle = 0;
  const char* trace_path = nullptr;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&] {
      const char* flag = argv[i];
      return bench::parse_count(flag, value());
    };
    if (is("--help") || is("-h")) {
      std::printf(
          "bench_serving_latency — multi-session serving latency/throughput\n"
          "  --sessions N   concurrent sessions (default 1024)\n"
          "  --threads N    serving pool size (default 4)\n"
          "  --shards N     manager slot shards (default 1; sharding is\n"
          "                 trace-invariant, it only removes contention)\n"
          "  --pump-batch N busy sessions drained per pump task, grouped\n"
          "                 per map for cache affinity (default 16)\n"
          "  --particles N  particles per session (default 128)\n"
          "  --ticks N      frame-batch inputs per session (default 40)\n"
          "  --queue N      per-session queue capacity (default 8)\n"
          "  --adaptive     KLD-adaptive particle counts (sessions shrink\n"
          "                 toward --min-particles once converged)\n"
          "  --min-particles N  adaptive shrink floor (default 128)\n"
          "  --evict-idle N after the paced replay, evict sessions idle\n"
          "                 for N pump generations (snapshot to the\n"
          "                 snapshot store, SoA blocks back to the arena);\n"
          "                 0 = off\n"
          "  --overload     push whole streams before pumping (forces\n"
          "                 drop-oldest admission control to fire)\n"
          "  --smoke        small-maze CI configuration (256 sessions)\n"
          "  --trace FILE   hexfloat per-session correction trace (the\n"
          "                 bytes ServeGolden.SmokeBattery hashes)\n");
      std::exit(0);
    } else if (is("--sessions")) {
      args.sessions = count();
    } else if (is("--threads")) {
      args.threads = count();
    } else if (is("--shards")) {
      args.shards = count();
    } else if (is("--pump-batch")) {
      args.pump_batch = count();
    } else if (is("--particles")) {
      args.particles = count();
    } else if (is("--min-particles")) {
      args.min_particles = count();
    } else if (is("--adaptive")) {
      args.adaptive = true;
    } else if (is("--evict-idle")) {
      args.evict_idle = count();
    } else if (is("--ticks")) {
      args.ticks = count();
    } else if (is("--queue")) {
      args.queue = count();
    } else if (is("--overload")) {
      args.overload = true;
    } else if (is("--smoke")) {
      args.smoke = true;
      args.sessions = 256;
      args.threads = 2;
      args.particles = 128;
      args.ticks = 20;
    } else if (is("--trace")) {
      args.trace_path = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.sessions == 0 || args.threads == 0 || args.particles == 0 ||
      args.ticks == 0 || args.queue == 0 || args.shards == 0 ||
      args.pump_batch == 0) {
    std::fprintf(stderr, "all sizes must be positive\n");
    std::exit(2);
  }
  return args;
}

/// One source's input stream: a SessionInput per frame-batch instant
/// (frames grouped by capture timestamp, odometry = the last sample at or
/// before the batch — equivalent to feeding every sample, since the
/// filter integrates odometry as a relative delta at correction time).
std::vector<serve::SessionInput> build_stream(const sim::Sequence& seq,
                                              std::size_t max_ticks) {
  std::vector<serve::SessionInput> stream;
  std::size_t frame_idx = 0;
  for (const sim::StateSample& odom : seq.odometry) {
    while (frame_idx < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const double stamp = seq.frames[frame_idx].timestamp_s;
      serve::SessionInput input;
      input.t = stamp;
      input.odometry = odom.pose;
      while (frame_idx < seq.frames.size() &&
             seq.frames[frame_idx].timestamp_s == stamp) {
        input.frames.push_back(seq.frames[frame_idx]);
        ++frame_idx;
      }
      stream.push_back(std::move(input));
      if (stream.size() >= max_ticks) return stream;
    }
  }
  return stream;
}

void print_latency(const char* label, const serve::LatencySummary& s) {
  std::printf("%-14s n=%-8zu p50=%8.1f us  p99=%8.1f us  p999=%8.1f us  "
              "mean=%8.1f us  max=%8.1f us%s\n",
              label, s.count, s.p50 * 1e6, s.p99 * 1e6, s.p999 * 1e6,
              s.mean * 1e6, s.max * 1e6,
              s.low_sample ? "  [low-sample: tails clamped to max]" : "");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Campaign battery whose datasets become the replay sources. Three
  // generated worlds in full mode (one map shared by a third of the
  // sessions each); the fast small maze in smoke mode. Two data seeds per
  // world so sessions on one map still replay distinct flights.
  eval::CampaignSpec spec;
  if (args.smoke) {
    spec.worlds = {{eval::CampaignWorld::kSmallMaze, 0},
                   {eval::CampaignWorld::kSmallMaze, 2}};
  } else {
    spec.worlds = {{eval::CampaignWorld::kOffice, 0, 3},
                   {eval::CampaignWorld::kWarehouse, 0, 2},
                   {eval::CampaignWorld::kLoopCorridor, 2, 1}};
  }
  spec.inits = {{eval::InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.seeds_per_cell = 2;
  spec.mcl.num_particles = args.particles;
  spec.master_seed = 31;
  eval::Campaign campaign(std::move(spec));

  std::fprintf(stderr, "preparing replay sources (worlds + datasets)...\n");
  eval::CampaignOptions prep;
  prep.threads = args.threads;
  const std::vector<eval::ReplaySource> sources =
      campaign.export_replay_sources(prep);
  if (sources.empty()) {
    std::fprintf(stderr, "no replay sources\n");
    return 1;
  }

  // Per-source shared input streams (sessions copy per push).
  std::vector<std::vector<serve::SessionInput>> streams;
  streams.reserve(sources.size());
  std::size_t min_ticks = args.ticks;
  for (const eval::ReplaySource& src : sources) {
    streams.push_back(build_stream(src.legs.front(), args.ticks));
    min_ticks = std::min(min_ticks, streams.back().size());
  }
  if (min_ticks == 0) {
    std::fprintf(stderr, "a replay source produced no frame batches\n");
    return 1;
  }

  serve::ServeOptions serve_opts;
  serve_opts.threads = args.threads;
  serve_opts.shards = args.shards;
  serve_opts.pump_batch = args.pump_batch;
  serve::SessionManager mgr(serve_opts);
  for (const eval::ReplaySource& src : sources) {
    // Sources on one world share a map key (and the same resources
    // pointer); define each key once.
    if (!mgr.has_map(src.map_key)) mgr.define_map(src.map_key, src.maps);
  }

  std::fprintf(stderr, "opening %zu sessions over %zu sources...\n",
               args.sessions, sources.size());
  for (std::size_t id = 0; id < args.sessions; ++id) {
    const eval::ReplaySource& src = sources[id % sources.size()];
    serve::SessionOptions opts;
    opts.config.precision = core::Precision::kFp32Qm;
    opts.config.mcl = campaign.spec().mcl;
    opts.config.mcl.seed = eval::campaign_mix(campaign.spec().master_seed,
                                              0x5e55u + id);
    opts.config.mcl.adaptive_particles = args.adaptive;
    opts.config.mcl.min_particles = args.min_particles;
    opts.config.sensors = {src.front_tof, src.rear_tof};
    opts.queue_capacity = args.queue;
    opts.start = serve::StartPose{src.start_pose, 0.2, 0.2};
    mgr.open_session(src.map_key, opts);
  }

  // Serve loop. Paced mode pushes windows smaller than the queue and
  // pumps between windows (steady state, nothing dropped); overload mode
  // pushes each session's whole stream first, so only the last `queue`
  // inputs survive and the drop counters show the shed load.
  const std::size_t window =
      args.overload ? min_ticks : std::max<std::size_t>(1, args.queue / 2);
  std::size_t saturated = 0;
  std::size_t drop_signals = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t base = 0; base < min_ticks; base += window) {
    const std::size_t end = std::min(min_ticks, base + window);
    for (std::size_t id = 0; id < args.sessions; ++id) {
      const auto& stream = streams[id % sources.size()];
      for (std::size_t t = base; t < end; ++t) {
        switch (mgr.push(id, stream[t])) {
          case serve::Admission::kAccepted:
            break;
          case serve::Admission::kSaturated:
            ++saturated;
            break;
          case serve::Admission::kDroppedOldest:
            ++drop_signals;
            break;
        }
      }
    }
    mgr.pump();
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (args.trace_path != nullptr) {
    // Hexfloat per-session correction trace: two invocations with the
    // same arguments must produce byte-identical files (covers dataset
    // generation, the shared-map build, admission control and the pooled
    // pump's per-session serialization). Dumped before the eviction tail
    // — an evicted session has no live trace to read.
    std::ofstream trace(args.trace_path);
    if (!trace) {
      std::fprintf(stderr, "cannot open trace file %s\n", args.trace_path);
      return 1;
    }
    trace << serve::correction_trace(mgr);
  }

  // Eviction tail: the replay is over, every session is idle. Let the
  // idle deadline lapse (empty pump generations), then sweep — each
  // evicted session serializes into the snapshot store and its SoA
  // blocks return to the per-map arena.
  if (args.evict_idle > 0) {
    for (std::size_t i = 0; i < args.evict_idle; ++i) mgr.pump();
    mgr.evict_idle(args.evict_idle);
  }

  const serve::ServeReport rep = mgr.report();
  std::printf("\n=== Serving latency — %zu sessions, %zu threads, "
              "%zu shards (batch %zu), %zu particles%s, %zu ticks%s ===\n\n",
              args.sessions, args.threads, args.shards, args.pump_batch,
              args.particles, args.adaptive ? " (adaptive)" : "", min_ticks,
              args.overload ? ", overload" : "");
  std::printf("wall %.2f s  (pump %.2f s)   corrections %zu   "
              "%.0f corrections/s\n",
              wall_s, rep.pump_seconds, rep.corrections,
              rep.corrections_per_second);
  std::printf("inputs: processed %zu, dropped %zu "
              "(backpressure signals: %zu saturated, %zu drop)\n",
              rep.processed_inputs, rep.dropped_inputs, saturated,
              drop_signals);

  // Per-idle-session particle memory at the end of the run — every
  // session is idle (queues drained), so the footprint an idle session
  // pins is live SoA blocks (both buffers at capacity) plus, for evicted
  // sessions, the snapshot blob parked in the snapshot store. The fixed
  // baseline is what the same budget pins without adaptation or
  // eviction: 2 SoA buffers × 4 fp32 fields, always at full capacity.
  const std::size_t fixed_resident_bytes =
      args.sessions * 2 * args.particles * 4 * sizeof(float);
  const std::size_t idle_footprint_bytes =
      rep.resident_particle_bytes + rep.stashed_snapshot_bytes;
  const double per_session_bytes =
      static_cast<double>(idle_footprint_bytes) /
      static_cast<double>(args.sessions);
  const double reduction =
      idle_footprint_bytes > 0
          ? static_cast<double>(fixed_resident_bytes) /
                static_cast<double>(idle_footprint_bytes)
          : 0.0;
  std::printf("particles: %zu active (budget %zu/session)   "
              "%zu evicted sessions\n",
              rep.active_particles, args.particles, rep.evicted_sessions);
  std::printf("idle footprint: %.1f MiB resident + %.1f MiB stashed "
              "= %.0f B/session   %.1fx vs fixed\n\n",
              static_cast<double>(rep.resident_particle_bytes) / (1 << 20),
              static_cast<double>(rep.stashed_snapshot_bytes) / (1 << 20),
              per_session_bytes, reduction);

  print_latency("global", rep.latency);
  for (const serve::MapReport& m : rep.per_map) {
    print_latency(m.map.c_str(), m.latency);
  }

  if (rep.corrections == 0) {
    std::fprintf(stderr, "\nno corrections ran — bench is vacuous\n");
    return 1;
  }
  if (!args.overload && rep.dropped_inputs != 0) {
    std::fprintf(stderr,
                 "\npaced mode dropped %zu inputs (queue misconfigured?)\n",
                 rep.dropped_inputs);
    return 1;
  }

  return 0;
}
