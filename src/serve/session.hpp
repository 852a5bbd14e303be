#pragma once
/// \file session.hpp
/// \brief One live localization session: a Localizer behind a bounded
/// admission-controlled frame queue.
///
/// The serving split: producers (radio links, replay threads) call
/// `push()` from any thread — it only touches the queue under its own
/// mutex. The SessionManager's pump calls `process_pending()` with
/// exactly one invocation in flight per session (each busy session sits
/// in exactly one batch of one pump), which drains the queue into the
/// Localizer. The Localizer itself stays single-threaded-by-contract;
/// the session IS the serialization the contract demands, and the
/// Localizer's SerialGuard asserts it.
///
/// Admission control is drop-oldest: a full queue evicts its oldest
/// input to admit the new one (a live localizer wants the freshest
/// sensor data — re-localizing from recent frames beats replaying stale
/// ones), counts the eviction, and reports backpressure to the caller:
/// `kSaturated` when the queue crosses half capacity ("slow down"),
/// `kDroppedOldest` when data was actually lost ("you are too slow").

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/executor.hpp"
#include "core/localizer.hpp"
#include "serve/latency.hpp"

namespace tofmcl::serve {

/// One timestamped input tick: the odometry estimate plus the ToF frames
/// captured at that instant (frames may be empty for odometry-only ticks).
struct SessionInput {
  double t = 0.0;
  Pose2 odometry{};
  std::vector<sensor::TofFrame> frames;
};

/// Backpressure signal returned by push().
enum class Admission {
  kAccepted,       ///< Queued with room to spare.
  kSaturated,      ///< Queued, but the queue is at least half full.
  kDroppedOldest,  ///< Queued by evicting the oldest pending input.
};

/// One correction's output, in arrival order (the determinism trace).
struct CorrectionRecord {
  double t = 0.0;
  Pose2 pose{};
};

/// Initial pose hypothesis; absent means global localization.
struct StartPose {
  Pose2 pose{};
  double sigma_xy = 0.1;
  double sigma_yaw = 0.05;
};

struct SessionOptions {
  core::LocalizerConfig config;
  std::size_t queue_capacity = 8;
  std::optional<StartPose> start;
};

class Session {
 public:
  /// Starts the localizer (tracking from `opts.start`, else global) on the
  /// shared per-map ScoringContext; the session contributes only its
  /// SessionKnobs (seed and particle budget from `opts.config.mcl`).
  Session(std::string map_key,
          std::shared_ptr<const core::ScoringContext> ctx,
          const SessionOptions& opts);

  /// Restores a previously snapshotted session instead of starting fresh:
  /// counters, latency samples, the correction trace and the full filter
  /// state come from `blob` (written by snapshot()), so the session
  /// resumes bit-identically where it left off. Throws common::IoError on
  /// a malformed/mis-versioned blob, PreconditionError when the blob was
  /// taken under different knobs than `opts` carries.
  Session(std::string map_key,
          std::shared_ptr<const core::ScoringContext> ctx,
          const SessionOptions& opts, std::span<const std::byte> blob);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Serializes everything session-local — counters, latency samples,
  /// correction trace, and the Localizer snapshot (odometry anchors +
  /// FilterState) — as a versioned binary blob. Precondition: no pending
  /// inputs (snapshot between pumps, after the queue drained); asserted.
  /// Non-const: the Localizer applies its queued motion first.
  std::vector<std::byte> snapshot();

  const std::string& map_key() const { return map_key_; }

  /// Thread-safe enqueue with drop-oldest admission control.
  Admission push(SessionInput input);

  /// True when inputs are queued. Racy by nature (a producer may push
  /// right after); the pump uses it only to skip idle sessions.
  bool has_pending() const;

  /// Drains the queue through the localizer. NOT thread-safe with itself
  /// — the SessionManager runs at most one invocation per session at a
  /// time (concurrent pushes are fine). Returns corrections run.
  std::size_t process_pending();

  // --- accounting ---------------------------------------------------------
  // The counters and the latency merge are safe to read WHILE a pump task
  // is running process_pending() (SessionManager::report() does exactly
  // that): counters are relaxed atomics written only by the serialized
  // pump task, and the latency recorder is guarded by its own mutex.
  std::size_t corrections() const {
    return corrections_.load(std::memory_order_relaxed);
  }
  std::size_t processed_inputs() const {
    return processed_inputs_.load(std::memory_order_relaxed);
  }
  std::size_t dropped_inputs() const {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    return dropped_inputs_;
  }
  /// Active particle count / resident SoA bytes as of the last completed
  /// correction batch — cached so report() never reads the localizer's
  /// filter state while a pump task mutates it.
  std::size_t active_particles() const {
    return active_particles_.load(std::memory_order_relaxed);
  }
  std::size_t resident_particle_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  /// Merges every latency sample recorded so far into `out`, snapshotted
  /// under the recorder's guard — the report()-during-pump-safe read.
  void merge_latency_into(LatencyRecorder& out) const {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    out.merge(latency_);
  }
  /// Raw recorder/trace access for between-pump readers only (tests,
  /// trace dumps, snapshot): a pump task appends to both without the
  /// stats guard held for the whole batch.
  const LatencyRecorder& latency() const { return latency_; }
  const std::vector<CorrectionRecord>& trace() const { return trace_; }
  const core::Localizer& localizer() const { return localizer_; }

 private:
  /// Tag-dispatched common ctor: builds the localizer on the context but
  /// leaves it unstarted (the public ctors then start or restore it).
  struct Unstarted {};
  Session(Unstarted, std::string map_key,
          std::shared_ptr<const core::ScoringContext> ctx,
          const SessionOptions& opts);

  std::string map_key_;
  /// Per-filter chunk execution stays serial: the serving layer extracts
  /// parallelism ACROSS sessions, not within one.
  core::SerialExecutor executor_;
  core::Localizer localizer_;
  std::size_t capacity_;

  /// Re-caches active_particles_/resident_bytes_ from the localizer;
  /// called at start/restore and after each correction batch.
  void refresh_footprint();

  mutable std::mutex queue_mutex_;
  std::deque<SessionInput> queue_;
  std::size_t dropped_inputs_ = 0;  ///< Guarded by queue_mutex_.

  // Written only by process_pending (externally serialized); atomics so
  // report() may read them while a pump task is mid-batch.
  std::atomic<std::size_t> corrections_{0};
  std::atomic<std::size_t> processed_inputs_{0};
  std::atomic<std::size_t> active_particles_{0};
  std::atomic<std::size_t> resident_bytes_{0};
  /// Guards latency_ appends/merges (report() merges mid-pump).
  mutable std::mutex stats_mutex_;
  LatencyRecorder latency_;
  std::vector<CorrectionRecord> trace_;
};

}  // namespace tofmcl::serve
