// Serving-layer tests: the keyed once-map (single construction + pointer
// identity under concurrent requests), bounded admission control with
// drop-oldest semantics and backpressure signals, the Localizer's
// asserted single-threaded contract and correction-timing hooks, and the
// serial-vs-pooled determinism gate (bit-identical per-session correction
// traces whatever the pump schedule — set TOFMCL_SERVE_TRACE to dump a
// hexfloat trace for cross-process CI diffs), plus a committed golden
// digest of the serial trace (ServeGolden, ctest entry test_serve_golden).
//
// The CI ThreadSanitizer job runs this binary: the pooled pumps below are
// the cross-thread session-hopping pattern the SerialGuard's
// acquire/release pair must keep data-race-free.

#include "serve/session_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/serial_guard.hpp"
#include "golden_digest.hpp"
#include "map/snapshot_io.hpp"
#include "serve/snapshot_store.hpp"
#include "sim/maze.hpp"

namespace tofmcl::serve {
namespace {

ServeOptions serve_options(std::size_t threads, std::size_t shards = 1,
                           std::size_t pump_batch = 16,
                           std::shared_ptr<SnapshotStore> store = nullptr) {
  ServeOptions opts;
  opts.threads = threads;
  opts.shards = shards;
  opts.pump_batch = pump_batch;
  opts.store = std::move(store);
  return opts;
}

/// A fresh, empty directory under the test temp root (stale files from a
/// previous run would pollute the FileSnapshotStore's adoption scan).
std::filesystem::path fresh_store_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  return dir;
}

map::OccupancyGrid maze_grid() {
  sim::EvaluationEnvironment env;
  env.world = sim::drone_maze();
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  return sim::rasterize_environment(env, 0.05, 0.0);
}

core::LocalizerConfig base_config(std::size_t particles = 128,
                                  std::uint64_t seed = 7) {
  core::LocalizerConfig cfg;
  cfg.precision = core::Precision::kFp32Qm;
  cfg.mcl.num_particles = particles;
  cfg.mcl.seed = seed;
  return cfg;
}

sensor::TofFrame valid_frame(double t, float distance = 1.0f) {
  sensor::TofFrame frame;
  frame.timestamp_s = t;
  frame.sensor_id = 0;
  frame.mode = sensor::ZoneMode::k8x8;
  frame.zones.assign(64, {distance, sensor::ZoneStatus::kValid});
  return frame;
}

/// A deterministic synthetic input stream: the drone advances 5 cm per
/// tick (crossing the 10 cm correction gate every other frame batch) and
/// senses a wall-distance frame on every tick.
std::vector<SessionInput> synthetic_stream(std::size_t ticks) {
  std::vector<SessionInput> stream;
  for (std::size_t i = 0; i < ticks; ++i) {
    SessionInput input;
    input.t = 0.1 * static_cast<double>(i);
    input.odometry = Pose2{0.05 * static_cast<double>(i), 0.0, 0.0};
    input.frames.push_back(valid_frame(input.t));
    stream.push_back(std::move(input));
  }
  return stream;
}

// ---------------------------------------------------------------------------
// MapCatalog: the keyed once-map (duplicate-construction bugfix).
// ---------------------------------------------------------------------------

TEST(MapCatalog, ConcurrentRequestsBuildOnceAndShareThePointer) {
  const auto grid = maze_grid();
  const auto cfg = base_config();
  MapCatalog catalog;
  std::atomic<int> builds{0};
  const auto builder = [&]() -> MapCatalog::Resources {
    ++builds;
    const core::Precision p = core::Precision::kFp32Qm;
    return core::build_map_resources(grid, cfg.mcl, {&p, 1});
  };

  constexpr int kThreads = 8;
  std::vector<MapCatalog::Resources> got(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&, i] { got[i] = catalog.get_or_build("maze", builder); });
    }
    for (auto& t : threads) t.join();
  }

  EXPECT_EQ(builds.load(), 1);
  ASSERT_NE(got[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(got[i].get(), got[0].get()) << "session " << i;
  }
  EXPECT_EQ(catalog.size(), 1u);
  // A later request reuses the entry (no rebuild).
  EXPECT_EQ(catalog.get_or_build("maze", builder).get(), got[0].get());
  EXPECT_EQ(builds.load(), 1);
}

TEST(MapCatalog, FailedBuildPropagatesAndRetries) {
  MapCatalog catalog;
  int attempts = 0;
  const auto flaky = [&]() -> MapCatalog::Resources {
    if (++attempts == 1) throw IoError("map file unreadable");
    return std::make_shared<const core::MapResources>();
  };
  EXPECT_THROW(catalog.get_or_build("flaky", flaky), IoError);
  // The failed entry was forgotten: the next request retries and wins.
  EXPECT_NE(catalog.get_or_build("flaky", flaky), nullptr);
  EXPECT_EQ(attempts, 2);
}

// ---------------------------------------------------------------------------
// Session admission control.
// ---------------------------------------------------------------------------

TEST(Session, DropOldestAdmissionControlIsExact) {
  const auto grid = maze_grid();
  const core::Precision p = core::Precision::kFp32Qm;
  const auto cfg = base_config();
  auto maps = core::build_map_resources(grid, cfg.mcl, {&p, 1});
  auto ctx = core::build_scoring_context(maps, cfg);
  SessionOptions opts;
  opts.config = cfg;
  opts.queue_capacity = 4;
  opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
  Session session(0, "maze", ctx, opts);

  const auto stream = synthetic_stream(10);
  // Capacity 4, half-full threshold 2: the first push is accepted with
  // room, pushes 2..4 report saturation, pushes 5..10 evict the oldest.
  EXPECT_EQ(session.push(stream[0]), Admission::kAccepted);
  EXPECT_EQ(session.push(stream[1]), Admission::kSaturated);
  EXPECT_EQ(session.push(stream[2]), Admission::kSaturated);
  EXPECT_EQ(session.push(stream[3]), Admission::kSaturated);
  for (std::size_t i = 4; i < 10; ++i) {
    EXPECT_EQ(session.push(stream[i]), Admission::kDroppedOldest) << i;
  }
  EXPECT_EQ(session.dropped_inputs(), 6u);

  // Exactly the newest `capacity` inputs survive, in arrival order.
  session.process_pending();
  EXPECT_EQ(session.processed_inputs(), 4u);
  EXPECT_FALSE(session.has_pending());
}

TEST(Session, ProcessingDrainsAndCorrects) {
  const auto grid = maze_grid();
  const core::Precision p = core::Precision::kFp32Qm;
  const auto cfg = base_config();
  auto maps = core::build_map_resources(grid, cfg.mcl, {&p, 1});
  auto ctx = core::build_scoring_context(maps, cfg);
  SessionOptions opts;
  opts.config = cfg;
  opts.queue_capacity = 64;
  opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
  Session session(0, "maze", ctx, opts);

  for (const auto& input : synthetic_stream(12)) {
    ASSERT_NE(session.push(input), Admission::kDroppedOldest);
  }
  const std::size_t corrected = session.process_pending();
  EXPECT_GT(corrected, 0u);
  EXPECT_EQ(session.corrections(), corrected);
  EXPECT_EQ(session.trace().size(), corrected);
  EXPECT_EQ(session.latency().count(), corrected);
  EXPECT_EQ(session.processed_inputs(), 12u);
  // Timing hooks: every correction recorded a positive wall time, and the
  // localizer's running total covers them.
  for (const double s : session.latency().samples()) EXPECT_GT(s, 0.0);
  EXPECT_GT(session.localizer().last_correction_seconds(), 0.0);
  EXPECT_GE(session.localizer().total_correction_seconds(),
            session.localizer().last_correction_seconds());
}

// ---------------------------------------------------------------------------
// SerialGuard: the asserted single-threaded contract (on_frames
// accounting race bugfix).
// ---------------------------------------------------------------------------

TEST(SerialGuard, ConcurrentEntryThrowsLoudly) {
  SerialGuard guard;
  SerialGuard::Scope outer(guard);
  EXPECT_THROW(SerialGuard::Scope inner(guard), PreconditionError);
  // The outer scope still releases cleanly after the inner throw...
}

TEST(SerialGuard, ReleasesAfterScopeExit) {
  SerialGuard guard;
  { SerialGuard::Scope scope(guard); }
  // ...so a fresh entry succeeds.
  SerialGuard::Scope again(guard);
}

TEST(SerialGuard, SerializedCrossThreadCallsAreClean) {
  // The serving pattern: consecutive (externally serialized) calls land
  // on different threads. Must neither throw nor race — the TSan CI job
  // checks the latter via the guard's acquire/release pair.
  const auto grid = maze_grid();
  core::SerialExecutor exec;
  core::Localizer loc(grid, base_config(), exec);
  loc.start_at(Pose2{0.5, 0.5, 0.0}, 0.1, 0.05);
  for (int hop = 0; hop < 8; ++hop) {
    std::thread worker([&loc, hop] {
      loc.on_odometry(Pose2{0.05 * hop, 0.0, 0.0});
      const auto frame = valid_frame(0.1 * hop);
      loc.on_frames({&frame, 1});
    });
    worker.join();  // The join is the owner's serialization hand-off.
  }
  EXPECT_GT(loc.updates_run(), 0u);
}

// ---------------------------------------------------------------------------
// SessionManager: multiplexing, aggregation, determinism.
// ---------------------------------------------------------------------------

/// Builds a manager with `sessions` sessions on one maze map and replays
/// `ticks` synthetic inputs, pumping every `pump_every` ticks.
std::unique_ptr<SessionManager> run_maze_service(std::size_t threads,
                                                 std::size_t sessions,
                                                 std::size_t ticks,
                                                 std::size_t pump_every,
                                                 std::size_t shards = 1,
                                                 std::size_t pump_batch = 16) {
  auto mgr = std::make_unique<SessionManager>(
      serve_options(threads, shards, pump_batch));
  mgr->define_map("maze", maze_grid(), base_config().mcl,
                  {core::Precision::kFp32Qm});
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionOptions opts;
    opts.config = base_config(128, 100 + i);  // per-session filter seed
    opts.queue_capacity = 2 * pump_every;     // paced: nothing dropped
    opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
    mgr->open_session("maze", opts);
  }
  const auto stream = synthetic_stream(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    for (std::size_t i = 0; i < sessions; ++i) {
      EXPECT_NE(mgr->push(i, stream[t]), Admission::kDroppedOldest);
    }
    if ((t + 1) % pump_every == 0 || t + 1 == ticks) mgr->pump();
  }
  return mgr;
}

/// Names the file SerialAndPooledPumpsYieldBitIdenticalTraces writes its
/// serve_trace() dump to; CI diffs the files of two processes.
constexpr const char* kServeTraceEnv = "TOFMCL_SERVE_TRACE";

/// Hexfloat dump of the first `sessions` sessions' correction traces, one
/// line per correction. Both the cross-process trace file and the golden
/// digest below are taken over exactly these bytes.
std::string serve_trace(const SessionManager& mgr, std::size_t sessions) {
  std::ostringstream out;
  out << std::hexfloat;
  for (std::size_t i = 0; i < sessions; ++i) {
    for (const CorrectionRecord& r : mgr.session(i).trace()) {
      out << i << ' ' << r.t << ' ' << r.pose.position.x << ' '
          << r.pose.position.y << ' ' << r.pose.yaw << '\n';
    }
  }
  return out.str();
}

TEST(SessionManager, SerialAndPooledPumpsYieldBitIdenticalTraces) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kTicks = 16;
  // Different pump cadences on purpose: batching must not matter either.
  const auto serial = run_maze_service(0, kSessions, kTicks, 4);
  const auto pooled = run_maze_service(4, kSessions, kTicks, 3);

  std::size_t corrections = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& ts = serial->session(i).trace();
    const auto& tp = pooled->session(i).trace();
    ASSERT_EQ(ts.size(), tp.size()) << "session " << i;
    corrections += ts.size();
    for (std::size_t j = 0; j < ts.size(); ++j) {
      // Bitwise equality: EXPECT_EQ on doubles is exact.
      EXPECT_EQ(ts[j].t, tp[j].t);
      EXPECT_EQ(ts[j].pose.position.x, tp[j].pose.position.x);
      EXPECT_EQ(ts[j].pose.position.y, tp[j].pose.position.y);
      EXPECT_EQ(ts[j].pose.yaw, tp[j].pose.yaw);
    }
  }
  EXPECT_GT(corrections, 0u) << "gate is vacuous without corrections";

  // Distinct seeds must give distinct traces (the per-session RNG is
  // real, not copy-pasted state).
  ASSERT_GT(serial->session(0).trace().size(), 0u);
  ASSERT_GT(serial->session(1).trace().size(), 0u);
  EXPECT_NE(serial->session(0).trace().front().pose.position.x,
            serial->session(1).trace().front().pose.position.x);

  // Cross-process determinism hook: dump the pooled traces for CI to diff
  // between two independent test processes.
  if (const char* path = std::getenv(kServeTraceEnv)) {
    std::ofstream trace(path);
    ASSERT_TRUE(trace) << "cannot open " << path;
    trace << serve_trace(*pooled, kSessions);
  }
}

// Golden digest (ctest entry test_serve_golden): pins the serial maze
// service's traces to a committed digest (see golden_digest.hpp).
TEST(ServeGolden, MazeSessions) {
  golden::expect_digest("maze sessions", 0x2943e289cf1bb9a0ull, [] {
    return serve_trace(*run_maze_service(0, 6, 16, 4), 6);
  });
}

TEST(SessionManager, ReportAggregatesPerMapAndGlobally) {
  SessionManager mgr(serve_options(2));
  mgr.define_map("maze_a", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  mgr.define_map("maze_b", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  SessionOptions opts;
  opts.config = base_config();
  opts.queue_capacity = 32;
  opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
  const std::size_t a0 = mgr.open_session("maze_a", opts);
  const std::size_t a1 = mgr.open_session("maze_a", opts);
  const std::size_t b0 = mgr.open_session("maze_b", opts);

  const auto stream = synthetic_stream(12);
  for (const auto& input : stream) {
    mgr.push(a0, input);
    mgr.push(a1, input);
    mgr.push(b0, input);
  }
  const std::size_t corrected = mgr.pump();
  EXPECT_GT(corrected, 0u);

  const ServeReport rep = mgr.report();
  EXPECT_EQ(rep.sessions, 3u);
  EXPECT_EQ(rep.processed_inputs, 36u);
  EXPECT_EQ(rep.corrections, corrected);
  EXPECT_EQ(rep.latency.count, corrected);
  EXPECT_GT(rep.pump_seconds, 0.0);
  EXPECT_GT(rep.corrections_per_second, 0.0);

  ASSERT_EQ(rep.per_map.size(), 2u);
  EXPECT_EQ(rep.per_map[0].map, "maze_a");
  EXPECT_EQ(rep.per_map[0].sessions, 2u);
  EXPECT_EQ(rep.per_map[1].map, "maze_b");
  EXPECT_EQ(rep.per_map[1].sessions, 1u);
  EXPECT_EQ(rep.per_map[0].corrections + rep.per_map[1].corrections,
            rep.corrections);
  EXPECT_EQ(rep.per_map[0].latency.count + rep.per_map[1].latency.count,
            rep.latency.count);
  EXPECT_EQ(rep.dropped_inputs, 0u);
}

TEST(SessionManager, ConcurrentOpensOnOneMapShareOneBuild) {
  // Manager-level once-map: sessions opened from many threads at once on
  // a grid-defined map must all come up (the catalog serializes the
  // single build) and then serve.
  SessionManager mgr(serve_options(2));
  mgr.define_map("maze", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  constexpr std::size_t kOpeners = 6;
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kOpeners; ++i) {
      threads.emplace_back([&mgr, i] {
        SessionOptions opts;
        opts.config = base_config(128, 200 + i);
        opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
        mgr.open_session("maze", opts);
      });
    }
    for (auto& t : threads) t.join();
  }
  EXPECT_EQ(mgr.num_sessions(), kOpeners);
  const auto stream = synthetic_stream(6);
  for (const auto& input : stream) {
    for (std::size_t i = 0; i < kOpeners; ++i) mgr.push(i, input);
  }
  EXPECT_GT(mgr.pump(), 0u);
}

TEST(SessionManager, RejectsUnknownKeys) {
  SessionManager mgr(serve_options(0));
  SessionOptions opts;
  opts.config = base_config();
  EXPECT_THROW(mgr.open_session("nope", opts), PreconditionError);
  EXPECT_THROW(mgr.push(0, SessionInput{}), PreconditionError);
  mgr.define_map("maze", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  EXPECT_THROW(mgr.define_map("maze", maze_grid(), base_config().mcl,
                              {core::Precision::kFp32Qm}),
               PreconditionError);
}

TEST(SessionManager, OpenSessionRejectsConfigTheMapWasNotBuiltFor) {
  SessionManager mgr(serve_options(0));
  mgr.define_map("maze", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  SessionOptions opts;
  opts.config = base_config();
  opts.config.mcl.rmax += 0.5;
  EXPECT_THROW(mgr.open_session("maze", opts), PreconditionError);
  // The rejected open consumed no session id.
  opts.config = base_config();
  EXPECT_EQ(mgr.open_session("maze", opts), 0u);
}

TEST(SessionManager, HasMapTracksDefinitions) {
  SessionManager mgr(serve_options(0));
  EXPECT_FALSE(mgr.has_map("maze"));
  mgr.define_map("maze", maze_grid(), base_config().mcl,
                 {core::Precision::kFp32Qm});
  EXPECT_TRUE(mgr.has_map("maze"));
  EXPECT_FALSE(mgr.has_map("maze2"));
  // The check-before-define idiom replay loaders use (several sources
  // sharing one world key): second define is skipped, not thrown.
  if (!mgr.has_map("maze")) {
    mgr.define_map("maze", maze_grid(), base_config().mcl,
                   {core::Precision::kFp32Qm});
  }
  SessionOptions opts;
  opts.config = base_config();
  EXPECT_EQ(mgr.open_session("maze", opts), 0u);
}

// ---------------------------------------------------------------------------
// LatencyRecorder: tail quantiles at low sample counts (clamp bugfix).
// ---------------------------------------------------------------------------

TEST(LatencyRecorder, LowSampleTailsClampToMaxAndAreFlagged) {
  LatencyRecorder rec;
  for (int i = 1; i <= 10; ++i) rec.record(1e-3 * i);
  const LatencySummary s = rec.summarize();
  // 10 samples cannot resolve p99/p999: both clamp to max, flagged.
  EXPECT_TRUE(s.low_sample);
  EXPECT_EQ(s.p99, s.max);
  EXPECT_EQ(s.p999, s.max);
  EXPECT_EQ(s.max, 1e-2);

  LatencyRecorder big;
  for (int i = 1; i <= 200; ++i) big.record(1e-4 * i);
  const LatencySummary b = big.summarize();
  // 200 samples resolve p99 (interpolated below max) but not p999.
  EXPECT_TRUE(b.low_sample);
  EXPECT_LT(b.p99, b.max);
  EXPECT_EQ(b.p999, b.max);
}

// ---------------------------------------------------------------------------
// Session snapshot/restore and the manager's eviction policy.
// ---------------------------------------------------------------------------

/// Replays `stream[from, to)` into every session, pumping every
/// `pump_every` ticks (and at the end).
void replay_window(SessionManager& mgr, const std::vector<SessionInput>& stream,
                   std::size_t sessions, std::size_t from, std::size_t to,
                   std::size_t pump_every) {
  for (std::size_t t = from; t < to; ++t) {
    for (std::size_t i = 0; i < sessions; ++i) {
      ASSERT_NE(mgr.push(i, stream[t]), Admission::kDroppedOldest);
    }
    if ((t + 1 - from) % pump_every == 0 || t + 1 == to) mgr.pump();
  }
}

std::unique_ptr<SessionManager> make_maze_manager(
    std::size_t threads, std::size_t sessions, std::size_t shards = 1,
    std::shared_ptr<SnapshotStore> store = nullptr) {
  auto mgr = std::make_unique<SessionManager>(
      serve_options(threads, shards, /*pump_batch=*/16, std::move(store)));
  mgr->define_map("maze", maze_grid(), base_config().mcl,
                  {core::Precision::kFp32Qm});
  for (std::size_t i = 0; i < sessions; ++i) {
    SessionOptions opts;
    opts.config = base_config(128, 100 + i);
    opts.queue_capacity = 16;
    opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
    mgr->open_session("maze", opts);
  }
  return mgr;
}

void expect_bitwise_equal_traces(const SessionManager& a,
                                 const SessionManager& b,
                                 std::size_t sessions) {
  std::size_t corrections = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto& ta = a.session(i).trace();
    const auto& tb = b.session(i).trace();
    ASSERT_EQ(ta.size(), tb.size()) << "session " << i;
    corrections += ta.size();
    for (std::size_t j = 0; j < ta.size(); ++j) {
      EXPECT_EQ(ta[j].t, tb[j].t);
      EXPECT_EQ(ta[j].pose.position.x, tb[j].pose.position.x);
      EXPECT_EQ(ta[j].pose.position.y, tb[j].pose.position.y);
      EXPECT_EQ(ta[j].pose.yaw, tb[j].pose.yaw);
    }
  }
  EXPECT_GT(corrections, 0u) << "gate is vacuous without corrections";
}

/// The tentpole gate: running straight through vs snapshotting every
/// session mid-flight, evicting it (Session destroyed, blocks back in the
/// arena), and restoring transparently on the next push must produce
/// byte-identical correction traces — under the serial AND pooled pumps.
TEST(SessionSnapshot, EvictRestoreMidFlightIsBitIdentical) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kTicks = 16;
  const auto stream = synthetic_stream(kTicks);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const auto straight = make_maze_manager(threads, kSessions);
    replay_window(*straight, stream, kSessions, 0, kTicks, 4);

    const auto interrupted = make_maze_manager(threads, kSessions);
    replay_window(*interrupted, stream, kSessions, 0, kTicks / 2, 4);
    for (std::size_t i = 0; i < kSessions; ++i) {
      interrupted->evict_session(i);
      EXPECT_FALSE(interrupted->session_live(i));
    }
    EXPECT_EQ(interrupted->live_sessions(), 0u);
    EXPECT_EQ(interrupted->evicted_sessions(), kSessions);
    // The first push after eviction restores from the stashed blob.
    replay_window(*interrupted, stream, kSessions, kTicks / 2, kTicks, 4);
    EXPECT_EQ(interrupted->live_sessions(), kSessions);

    expect_bitwise_equal_traces(*straight, *interrupted, kSessions);
  }
}

/// restore_session() rewinds a LIVE session to an earlier snapshot:
/// replaying the same window twice from one snapshot gives the same
/// trace both times.
TEST(SessionSnapshot, ExplicitRestoreRewindsBitIdentically) {
  constexpr std::size_t kSessions = 2;
  constexpr std::size_t kTicks = 12;
  const auto stream = synthetic_stream(kTicks);
  const auto mgr = make_maze_manager(0, kSessions);
  replay_window(*mgr, stream, kSessions, 0, kTicks / 2, 3);

  std::vector<std::vector<std::byte>> blobs;
  for (std::size_t i = 0; i < kSessions; ++i) {
    blobs.push_back(mgr->snapshot_session(i));
    EXPECT_FALSE(blobs.back().empty());
  }
  replay_window(*mgr, stream, kSessions, kTicks / 2, kTicks, 3);
  std::vector<std::vector<CorrectionRecord>> first;
  for (std::size_t i = 0; i < kSessions; ++i) {
    first.push_back(mgr->session(i).trace());
  }

  for (std::size_t i = 0; i < kSessions; ++i) {
    mgr->restore_session(i, blobs[i]);
  }
  replay_window(*mgr, stream, kSessions, kTicks / 2, kTicks, 3);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto& again = mgr->session(i).trace();
    ASSERT_EQ(again.size(), first[i].size()) << "session " << i;
    for (std::size_t j = 0; j < again.size(); ++j) {
      EXPECT_EQ(again[j].t, first[i][j].t);
      EXPECT_EQ(again[j].pose.position.x, first[i][j].pose.position.x);
      EXPECT_EQ(again[j].pose.position.y, first[i][j].pose.position.y);
      EXPECT_EQ(again[j].pose.yaw, first[i][j].pose.yaw);
    }
  }
}

TEST(SessionSnapshot, VersionSkewAndTruncationAreRejected) {
  const auto mgr = make_maze_manager(0, 1);
  const auto stream = synthetic_stream(6);
  replay_window(*mgr, stream, 1, 0, 6, 2);

  const std::vector<std::byte> blob = mgr->snapshot_session(0);
  ASSERT_GT(blob.size(), 8u);

  // A snapshot stamped with a future format version must be rejected,
  // not misparsed (the version u16 follows the u32 magic).
  std::vector<std::byte> skewed = blob;
  skewed[4] = static_cast<std::byte>(std::to_integer<unsigned>(skewed[4]) ^ 0x7u);
  EXPECT_THROW(mgr->restore_session(0, skewed), IoError);

  std::vector<std::byte> bad_magic = blob;
  bad_magic[0] = static_cast<std::byte>(0xEE);
  EXPECT_THROW(mgr->restore_session(0, bad_magic), IoError);

  std::vector<std::byte> truncated(blob.begin(),
                                   blob.begin() + blob.size() / 2);
  EXPECT_THROW(mgr->restore_session(0, truncated), IoError);

  // An inflated trace count must be an IoError too, not a length_error or
  // bad_alloc from allocating for it. The count follows the header
  // (magic, version, three counters) and the latency samples.
  map::SnapshotReader header(blob);
  header.u32();
  header.u16();
  for (int i = 0; i < 3; ++i) header.u64();
  const std::uint64_t latency_count = header.u64();
  for (std::uint64_t i = 0; i < latency_count; ++i) header.f64();
  const std::size_t trace_count_at = blob.size() - header.remaining();
  std::vector<std::byte> inflated = blob;
  std::fill_n(inflated.begin() + trace_count_at, 8, std::byte{0});
  inflated[trace_count_at + 7] = std::byte{0x10};  // little-endian 2^60
  EXPECT_THROW(mgr->restore_session(0, inflated), IoError);

  // The session survived every rejected restore and still serves.
  EXPECT_TRUE(mgr->session_live(0));
  mgr->push(0, stream[0]);
  mgr->pump();
}

TEST(SessionManager, IdleEvictionReclaimsResidentMemory) {
  constexpr std::size_t kSessions = 3;
  const auto stream = synthetic_stream(8);
  const auto mgr = make_maze_manager(0, kSessions);
  replay_window(*mgr, stream, kSessions, 0, 8, 4);

  const ServeReport before = mgr->report();
  EXPECT_EQ(before.live_sessions, kSessions);
  EXPECT_GT(before.resident_particle_bytes, 0u);

  // Idle deadline: three empty pump generations. The first sweep is too
  // early, the second crosses the threshold for every session.
  mgr->pump();
  mgr->pump();
  EXPECT_EQ(mgr->evict_idle(3), 0u);
  mgr->pump();
  EXPECT_EQ(mgr->evict_idle(3), kSessions);

  const ServeReport evicted = mgr->report();
  EXPECT_EQ(evicted.live_sessions, 0u);
  EXPECT_EQ(evicted.evicted_sessions, kSessions);
  EXPECT_EQ(evicted.resident_particle_bytes, 0u);
  EXPECT_GT(evicted.stashed_snapshot_bytes, 0u);
  // The evicted blocks went back to the arena pool, not the allocator.
  EXPECT_GT(evicted.arena_pooled_bytes, 0u);
  // Stats survive eviction: the report still counts the evicted
  // sessions' corrections and latency samples.
  EXPECT_EQ(evicted.corrections, before.corrections);
  EXPECT_EQ(evicted.latency.count, before.latency.count);

  // Traffic returning to one session restores exactly that session.
  mgr->push(0, stream.front());
  mgr->pump();
  EXPECT_TRUE(mgr->session_live(0));
  EXPECT_FALSE(mgr->session_live(1));
  const ServeReport after = mgr->report();
  EXPECT_EQ(after.live_sessions, 1u);
  EXPECT_EQ(after.evicted_sessions, kSessions - 1);
  // The restored session's pre-eviction history came back with it.
  EXPECT_GE(after.corrections, evicted.corrections);
  EXPECT_GE(after.latency.count, evicted.latency.count);
}

/// Adaptive particle counts through the serving stack: a converged
/// tracking session shrinks its active set (and resident SoA bytes)
/// toward min_particles; fixed-count sessions hold the full budget.
TEST(SessionManager, AdaptiveSessionsShrinkResidentMemory) {
  const auto stream = synthetic_stream(12);
  const auto run = [&](bool adaptive) {
    auto mgr = std::make_unique<SessionManager>(serve_options(0));
    mgr->define_map("maze", maze_grid(), base_config().mcl,
                    {core::Precision::kFp32Qm});
    SessionOptions opts;
    opts.config = base_config(1024, 42);
    opts.config.mcl.adaptive_particles = adaptive;
    opts.config.mcl.min_particles = 128;
    // The synthetic stream's constant wall distance is physically
    // inconsistent with the motion, so the recovery monitor fires and
    // (by design) snaps an adaptive filter back to the full budget.
    // Disable injection and keep odometry noise small to isolate the
    // KLD shrink path — this tests the adaptation machinery, not the
    // observation model's convergence on synthetic frames.
    opts.config.mcl.enable_injection = false;
    opts.config.mcl.sigma_odom_xy = 0.01;
    opts.config.mcl.sigma_odom_yaw = 0.01;
    opts.queue_capacity = 16;
    opts.start = StartPose{Pose2{0.5, 0.5, 0.0}, 0.1, 0.05};
    mgr->open_session("maze", opts);
    for (const auto& input : stream) {
      mgr->push(0, input);
      mgr->pump();
    }
    return mgr;
  };

  const auto fixed = run(false);
  const auto adaptive = run(true);
  const ServeReport rf = fixed->report();
  const ServeReport ra = adaptive->report();
  EXPECT_EQ(rf.active_particles, 1024u);
  // A tight tracking start converges within a few corrections; the KLD
  // bound then sits far below the full budget.
  EXPECT_LT(ra.active_particles, 512u);
  EXPECT_GE(ra.active_particles, 128u);
  EXPECT_LT(ra.resident_particle_bytes, rf.resident_particle_bytes);
  // Both still localize: the last correction landed near ground truth's
  // vicinity (sanity, not an accuracy gate).
  EXPECT_TRUE(adaptive->session(0).localizer().estimate().valid);
}

// ---------------------------------------------------------------------------
// SnapshotStore: pluggable blob parking (in-memory and file-backed).
// ---------------------------------------------------------------------------

TEST(SnapshotStore, FileBackedRoundTripIsBitwiseEqualToInMemory) {
  // One real session blob (the format evictions actually park) plus a
  // synthetic blob covering every byte value.
  const auto mgr = make_maze_manager(0, 1);
  const auto stream = synthetic_stream(6);
  replay_window(*mgr, stream, 1, 0, 6, 2);
  const std::vector<std::byte> session_blob = mgr->snapshot_session(0);
  ASSERT_FALSE(session_blob.empty());
  std::vector<std::byte> pattern(4096);
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::byte>(i & 0xFFu);
  }

  InMemorySnapshotStore mem;
  FileSnapshotStore file(fresh_store_dir("snapshot_store_roundtrip"));
  mem.put(7, session_blob);
  mem.put(8, pattern);
  file.put(7, session_blob);
  file.put(8, pattern);
  EXPECT_EQ(mem.count(), 2u);
  EXPECT_EQ(file.count(), 2u);
  EXPECT_EQ(mem.bytes(), session_blob.size() + pattern.size());
  EXPECT_EQ(file.bytes(), mem.bytes());
  EXPECT_TRUE(std::filesystem::exists(file.directory() / "7.snap"));

  const auto mem_back = mem.take(7);
  const auto file_back = file.take(7);
  ASSERT_TRUE(mem_back.has_value());
  ASSERT_TRUE(file_back.has_value());
  EXPECT_EQ(*mem_back, session_blob);  // std::byte vectors compare bitwise
  EXPECT_EQ(*file_back, session_blob);
  EXPECT_EQ(*mem_back, *file_back);
  EXPECT_EQ(*mem.take(8), *file.take(8));

  // take() removes: the second take misses and the counters drain.
  EXPECT_FALSE(mem.take(7).has_value());
  EXPECT_FALSE(file.take(7).has_value());
  EXPECT_EQ(mem.count(), 0u);
  EXPECT_EQ(file.count(), 0u);
  EXPECT_EQ(file.bytes(), 0u);
  EXPECT_FALSE(std::filesystem::exists(file.directory() / "7.snap"));
}

TEST(SnapshotStore, FileBackedBlobsSurviveTheStoreInstance) {
  const std::filesystem::path dir = fresh_store_dir("snapshot_store_persist");
  std::vector<std::byte> blob(512);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::byte>((i * 7) & 0xFFu);
  }
  {
    FileSnapshotStore first(dir);
    first.put(42, blob);
  }  // Store destroyed; only the file remains.
  FileSnapshotStore second(dir);  // Adopts the existing blob on scan.
  EXPECT_EQ(second.count(), 1u);
  EXPECT_EQ(second.bytes(), blob.size());
  const auto back = second.take(42);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, blob);
}

// ---------------------------------------------------------------------------
// Sharding: trace invariance, per-shard accounting, cross-manager
// migration over a shared store.
// ---------------------------------------------------------------------------

TEST(SessionManager, ShardCountAndBatchSizeNeverChangeTraces) {
  constexpr std::size_t kSessions = 6;
  constexpr std::size_t kTicks = 16;
  // Shard counts that do and don't divide the session count, a serial
  // and a pooled pump, different cadences, and a pump_batch of 1 (one
  // task per busy session — maximum interleaving): all must match the
  // single-shard serial baseline bit for bit.
  const auto base = run_maze_service(0, kSessions, kTicks, 4);
  const auto sharded_serial = run_maze_service(0, kSessions, kTicks, 3,
                                               /*shards=*/5, /*pump_batch=*/2);
  const auto sharded_pooled = run_maze_service(4, kSessions, kTicks, 2,
                                               /*shards=*/3, /*pump_batch=*/1);
  EXPECT_EQ(base->shard_count(), 1u);
  EXPECT_EQ(sharded_serial->shard_count(), 5u);
  EXPECT_EQ(sharded_pooled->shard_count(), 3u);
  expect_bitwise_equal_traces(*base, *sharded_serial, kSessions);
  expect_bitwise_equal_traces(*base, *sharded_pooled, kSessions);
}

TEST(SessionManager, ReportBreaksOccupancyAndEvictionsDownPerShard) {
  constexpr std::size_t kSessions = 6;
  const auto stream = synthetic_stream(8);
  const auto mgr = make_maze_manager(0, kSessions, /*shards=*/4);
  replay_window(*mgr, stream, kSessions, 0, 8, 4);
  mgr->evict_session(0);  // shard 0
  mgr->evict_session(3);  // shard 3

  const ServeReport rep = mgr->report();
  ASSERT_EQ(rep.per_shard.size(), 4u);
  std::size_t sessions = 0;
  std::size_t live = 0;
  std::size_t evicted = 0;
  for (std::size_t s = 0; s < rep.per_shard.size(); ++s) {
    EXPECT_EQ(rep.per_shard[s].shard, s);
    sessions += rep.per_shard[s].sessions;
    live += rep.per_shard[s].live_sessions;
    evicted += rep.per_shard[s].evicted_sessions;
  }
  EXPECT_EQ(sessions, rep.sessions);
  EXPECT_EQ(live, rep.live_sessions);
  EXPECT_EQ(evicted, rep.evicted_sessions);
  // Dense ids round-robin: shard 0 owns {0, 4}, shard 3 owns {3}.
  EXPECT_EQ(rep.per_shard[0].sessions, 2u);
  EXPECT_EQ(rep.per_shard[0].live_sessions, 1u);
  EXPECT_EQ(rep.per_shard[0].evicted_sessions, 1u);
  EXPECT_EQ(rep.per_shard[1].sessions, 2u);
  EXPECT_EQ(rep.per_shard[1].evicted_sessions, 0u);
  EXPECT_EQ(rep.per_shard[2].sessions, 1u);
  EXPECT_EQ(rep.per_shard[3].sessions, 1u);
  EXPECT_EQ(rep.per_shard[3].live_sessions, 0u);
  EXPECT_EQ(rep.per_shard[3].evicted_sessions, 1u);
}

/// The rebalancing seam end-to-end: manager A evicts every session into
/// a shared FILE-BACKED store, manager B (different shard count) takes
/// the blobs, restores them, and finishes the stream — the stitched
/// traces must equal an uninterrupted single-manager run bit for bit.
TEST(SessionManager, CrossManagerMigrationOverSharedStoreIsBitIdentical) {
  constexpr std::size_t kSessions = 3;
  constexpr std::size_t kTicks = 12;
  const auto stream = synthetic_stream(kTicks);
  const auto straight = make_maze_manager(0, kSessions);
  replay_window(*straight, stream, kSessions, 0, kTicks, 3);

  const auto store = std::make_shared<FileSnapshotStore>(
      fresh_store_dir("snapshot_store_migrate"));
  const auto source = make_maze_manager(0, kSessions, /*shards=*/2, store);
  replay_window(*source, stream, kSessions, 0, kTicks / 2, 3);
  for (std::size_t i = 0; i < kSessions; ++i) source->evict_session(i);
  EXPECT_EQ(store->count(), kSessions);
  // The parked state is real files by now, not manager memory.
  EXPECT_TRUE(std::filesystem::exists(store->directory() / "0.snap"));

  const auto target = make_maze_manager(0, kSessions, /*shards=*/3, store);
  for (std::size_t i = 0; i < kSessions; ++i) {
    const auto blob = store->take(i);
    ASSERT_TRUE(blob.has_value()) << "session " << i;
    target->restore_session(i, *blob);
  }
  EXPECT_EQ(store->count(), 0u);
  replay_window(*target, stream, kSessions, kTicks / 2, kTicks, 3);
  expect_bitwise_equal_traces(*straight, *target, kSessions);
}

// ---------------------------------------------------------------------------
// Concurrency regressions (the TSan CI job runs these): report() and
// evict_idle() racing a pooled pump.
// ---------------------------------------------------------------------------

/// Regression for two data races: pump() used to write pump_seconds_
/// unlocked while report() read it under a different mutex, and report()
/// read each session's LatencyRecorder (and mutable localizer footprint)
/// while pump tasks were appending samples. A reporter thread hammering
/// report() across a pooled pump must be clean under TSan.
TEST(SessionManager, ReportStaysCleanDuringPooledPump) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kTicks = 12;
  const auto stream = synthetic_stream(kTicks);
  const auto mgr = make_maze_manager(4, kSessions, /*shards=*/2);

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reports{0};
  std::thread reporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ServeReport rep = mgr->report();
      // Shard-local consistency holds even mid-pump.
      EXPECT_EQ(rep.live_sessions + rep.evicted_sessions, rep.sessions);
      EXPECT_GE(rep.pump_seconds, 0.0);
      reports.fetch_add(1, std::memory_order_relaxed);
    }
  });
  replay_window(*mgr, stream, kSessions, 0, kTicks, 2);
  // On a single-core box the whole replay can finish before the reporter
  // first runs; keep pumping (empty pumps are harmless) until at least
  // one report() provably overlapped pump() calls.
  while (reports.load(std::memory_order_relaxed) == 0) mgr->pump();
  stop.store(true, std::memory_order_release);
  reporter.join();
  EXPECT_GT(reports.load(std::memory_order_relaxed), 0u);

  // Quiescent again: the full cross-counter invariants are restored.
  const ServeReport rep = mgr->report();
  EXPECT_GT(rep.corrections, 0u);
  EXPECT_EQ(rep.latency.count, rep.corrections);
  EXPECT_GT(rep.pump_seconds, 0.0);
}

/// Regression for the evict-during-pump use-after-free: an evictor
/// thread sweeping evict_idle(0) as aggressively as possible while the
/// pump runs must never destroy an in-flight session (pinning makes the
/// sweep skip it) — and because evict/restore is transparent and
/// bit-exact, the hammered run's traces must still equal a straight
/// run's. Checked under the serial AND pooled pumps.
TEST(SessionManager, EvictDuringPumpIsPinnedSafeAndTraceInvariant) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kTicks = 16;
  const auto stream = synthetic_stream(kTicks);

  for (const std::size_t threads : {std::size_t{0}, std::size_t{4}}) {
    const auto straight = make_maze_manager(threads, kSessions);
    replay_window(*straight, stream, kSessions, 0, kTicks, 2);

    const auto hammered = make_maze_manager(threads, kSessions, /*shards=*/2);
    std::atomic<bool> stop{false};
    std::thread evictor([&] {
      // min_idle_pumps = 0: every live session with a drained queue is
      // fair game the moment its pump finishes (and pushes restore it
      // right back) — maximum evict/restore pressure on the pin flag.
      while (!stop.load(std::memory_order_acquire)) hammered->evict_idle(0);
    });
    replay_window(*hammered, stream, kSessions, 0, kTicks, 2);
    stop.store(true, std::memory_order_release);
    evictor.join();

    // Guarantee at least one evict/restore cycle per session whatever
    // the scheduler did, then bring everything back live for the diff.
    hammered->evict_idle(0);
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (hammered->session_live(i)) continue;
      const auto blob = hammered->store()->take(i);
      ASSERT_TRUE(blob.has_value()) << "session " << i;
      hammered->restore_session(i, *blob);
    }
    expect_bitwise_equal_traces(*straight, *hammered, kSessions);
  }
}

}  // namespace
}  // namespace tofmcl::serve
