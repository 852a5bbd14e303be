#pragma once
/// \file session_manager.hpp
/// \brief Localization-as-a-service: N live sessions over one thread pool.
///
/// The SessionManager is the serving layer's front door:
///
///   serve::SessionManager mgr({.threads = 8, .shards = 8});
///   const core::Precision precisions[] = {core::Precision::kFp32Qm};
///   mgr.define_map("office",
///                  core::build_map_resources(grid, mcl, precisions));
///   const auto id = mgr.open_session("office", opts);
///   mgr.push(id, {t, odom, frames});   // any thread, backpressure out
///   mgr.pump();                        // drains every session's backlog
///   const auto report = mgr.report();  // p50/p99/p999, corrections/s
///
/// Maps are defined once, with their prebuilt core::MapResources: every
/// session on a map shares that one immutable object (one EDT/LUT in
/// memory however many thousand sessions share the map). On top of the
/// resources the manager builds one core::ScoringContext per (map,
/// scoring fingerprint) on the first open that needs it, under the lock
/// that guards the map definitions (the build is a config copy and a few
/// checks, not an EDT): sessions differing only in SessionKnobs (seed,
/// particle budget) share one context and lease their SoA particle blocks
/// from its arena.
///
/// SHARDING: slot state is split into `shards` independent shards —
/// session id `i` lives in shard `i % shards` (ids are dense; the slot
/// index within the shard is `i / shards`, so sequentially opened
/// sessions round-robin across shards). Each shard owns its own mutex,
/// slot vector, and idle clock: a push() on one shard never contends
/// with a pump epilogue or report() scan on another. Sharding is
/// invisible to the data plane — a session's correction trace depends
/// only on its own input order, so shards=1 and shards=N produce
/// bit-identical traces (tests gate on this) and the pre-shard
/// determinism contract carries over unchanged.
///
/// PUMP BATCHING: instead of one task per busy session (task-queue
/// pressure at 100k sessions), each pump groups a shard's busy sessions
/// by map key into batches of up to `pump_batch` sessions of one map —
/// per-map affinity keeps a run inside one map's EDT/LUT while it drains
/// its batch. With threads > 0 the batches are the tasks of one
/// fork-join (ThreadPool::parallel_for, the caller working too); with
/// threads == 0 the caller drains the same batches in order. A busy slot
/// is PINNED under its shard lock for the duration of the pump, so a
/// concurrent evict_idle() can never destroy a Session whose
/// process_pending() task is still in flight (the evict-during-pump
/// use-after-free this layer used to have).
///
/// Eviction: a session idle for at least `min_idle_pumps` pump
/// generations (idleness is counted in pumps, never wall clock) can be
/// evicted — its full state is serialized into the SnapshotStore and the
/// Session object (and its arena blocks) is destroyed. The id stays
/// valid: the next push() transparently restores the session from its
/// blob and resumes bit-identically; a stashed blob the Session rejects
/// stays in the store and the session stays evicted. The store is
/// pluggable (ServeOptions::store): two managers sharing one store can
/// rebalance evicted sessions between themselves.
///
/// Determinism: a session's correction trace depends only on its own
/// input order (per-session RNG, SerialExecutor chunking), never on
/// scheduling, so serial and pooled pumps — and any shard count or batch
/// size — produce bit-identical traces (tests/test_serve.cpp gates on
/// this), and an evict/restore cycle inserted between (or during) pumps
/// leaves the trace byte-identical too.

#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_store.hpp"

namespace tofmcl::serve {

struct ServeOptions {
  /// Pool workers for the pump (the caller works too); 0 drains the
  /// batches serially on the caller.
  std::size_t threads = 0;
  /// Independent slot shards (each with its own mutex, slot vector and
  /// idle clock); session id i lives in shard i % shards. Sharding never
  /// changes a session's trace — it only removes control-plane
  /// contention at high session counts.
  std::size_t shards = 1;
  /// Busy sessions drained per pump task (grouped per map within a
  /// shard, so one run stays inside one map's EDT/LUT).
  std::size_t pump_batch = 16;
  /// Backing store for evicted-session snapshot blobs. Null builds a
  /// private InMemorySnapshotStore; pass a shared store to rebalance
  /// evicted sessions across managers.
  std::shared_ptr<SnapshotStore> store;
};

/// Per-map slice of a ServeReport.
struct MapReport {
  std::string map;
  std::size_t sessions = 0;
  std::size_t corrections = 0;
  std::size_t processed_inputs = 0;
  std::size_t dropped_inputs = 0;
  LatencySummary latency;  ///< Per-correction wall latency, seconds.
};

/// Per-shard slice of a ServeReport (occupancy + eviction accounting).
struct ShardReport {
  std::size_t shard = 0;
  std::size_t sessions = 0;  ///< Slots owned by this shard.
  std::size_t live_sessions = 0;
  std::size_t evicted_sessions = 0;
};

struct ServeReport {
  std::size_t sessions = 0;  ///< All opened sessions (live + evicted).
  std::size_t live_sessions = 0;
  std::size_t evicted_sessions = 0;
  std::size_t corrections = 0;
  std::size_t processed_inputs = 0;
  std::size_t dropped_inputs = 0;
  LatencySummary latency;
  /// Σ active particle counts over live sessions (shrinks under
  /// MclConfig::adaptive_particles once sessions converge).
  std::size_t active_particles = 0;
  /// Σ bytes the live sessions' SoA blocks pin right now (both buffers at
  /// allocated capacity) — the per-idle-session resident-memory metric.
  std::size_t resident_particle_bytes = 0;
  /// Bytes parked in the snapshot store for evicted sessions.
  std::size_t stashed_snapshot_bytes = 0;
  /// Σ pooled (free-list) bytes across the distinct per-map arenas.
  std::size_t arena_pooled_bytes = 0;
  /// Cumulative wall time spent inside pump() calls.
  double pump_seconds = 0.0;
  /// corrections / pump_seconds — the serving throughput figure.
  double corrections_per_second = 0.0;
  std::vector<MapReport> per_map;      ///< Sorted by map key.
  std::vector<ShardReport> per_shard;  ///< One entry per shard, in order.
};

class SessionManager {
 public:
  explicit SessionManager(ServeOptions opts);

  /// Registers built resources under `key` (from core::build_map_resources,
  /// or exported from an eval::Campaign, which did the expensive build
  /// once). Sessions on the key share exactly this object.
  void define_map(const std::string& key,
                  std::shared_ptr<const core::MapResources> maps);

  /// True when `key` is already defined. Callers replaying several
  /// sources that share one world use this to define each key once
  /// instead of catching the duplicate-define PreconditionError.
  bool has_map(const std::string& key) const;

  /// Opens a session on a defined map and returns its id. Thread-safe;
  /// concurrent opens of one map share a single scoring context (keyed by
  /// map + scoring fingerprint), built once. A config the map's resources
  /// were not built for throws PreconditionError and caches nothing; it,
  /// like any open the Session constructor rejects (say, a zero queue
  /// capacity), consumes no id. Ids are dense and round-robin across
  /// shards.
  std::size_t open_session(const std::string& map_key,
                           const SessionOptions& opts);

  /// Enqueue an input tick for a session. Thread-safe; returns the
  /// admission/backpressure signal. Pushing to an evicted session
  /// transparently restores it from its stashed snapshot first; a stash
  /// the Session rejects (IoError for a malformed one) is put back, and
  /// the session stays evicted. Only the session's own shard is locked —
  /// pushes on other shards proceed concurrently.
  Admission push(std::size_t session_id, SessionInput input);

  /// Processes every session's backlog in map-affine batches of up to
  /// `pump_batch` busy sessions: one pool task per batch when
  /// threads > 0, else batch after batch on the caller. Not reentrant;
  /// one pump at a time (pushes, evictions and reports may run
  /// concurrently with it).
  /// Advances every live session's idle counter (0 when it had work this
  /// pump). Returns corrections run.
  std::size_t pump();

  /// Serializes a live session's full state (counters, latency, trace,
  /// filter) and returns the blob; the session keeps running. Call
  /// between pumps, after its queue drained.
  std::vector<std::byte> snapshot_session(std::size_t session_id);

  /// Replaces a session's state with `blob` (from snapshot_session or an
  /// external store), whether the session is currently live or evicted.
  /// Any blob stashed for the id is discarded. A rejected blob (IoError
  /// for a malformed one) throws and leaves the session, and its stash,
  /// as they were. Call between pumps.
  void restore_session(std::size_t session_id,
                       std::span<const std::byte> blob);

  /// Evicts one live session: snapshot → snapshot store, then the
  /// Session (and its arena blocks) is destroyed. Preconditions: no
  /// pending inputs, no pump task in flight for it. Call between pumps.
  void evict_session(std::size_t session_id);

  /// Evicts every live session whose queue is empty and whose idle streak
  /// is at least `min_idle_pumps` pump generations. Safe to call while a
  /// pump is in flight: sessions with a running (or scheduled) pump task
  /// are pinned and skipped. Returns the number evicted.
  std::size_t evict_idle(std::size_t min_idle_pumps);

  std::size_t num_sessions() const;
  std::size_t live_sessions() const;
  std::size_t evicted_sessions() const;
  std::size_t shard_count() const { return shards_.size(); }
  /// True when the session currently has a live Session object.
  bool session_live(std::size_t session_id) const;
  double pump_seconds() const {
    return pump_seconds_.load(std::memory_order_relaxed);
  }
  /// The snapshot store evictions park blobs in (the one from
  /// ServeOptions, or the default in-memory store).
  const std::shared_ptr<SnapshotStore>& store() const { return store_; }
  /// Read-only session access (tests, trace dumps). The session must be
  /// live. Call between pumps.
  const Session& session(std::size_t session_id) const;

  /// Aggregates per-map, per-shard and global latency/throughput over ALL
  /// sessions — evicted sessions contribute the stats retained at
  /// eviction time. Safe to call while a pump is in flight: counters are
  /// atomics and latency recorders are merged under their guards.
  ServeReport report() const;

 private:
  /// One session id's slot for the whole manager lifetime. `live` is null
  /// while the session is evicted; the retained_* fields then carry its
  /// stats so report() stays complete. All fields are guarded by the
  /// owning shard's mutex.
  struct Slot {
    std::unique_ptr<Session> live;
    std::string map_key;
    std::shared_ptr<const core::ScoringContext> ctx;
    SessionOptions opts;
    /// True while a pump has (or may have) a process_pending() task in
    /// flight for this slot: eviction must skip pinned slots — destroying
    /// the Session under a running task is a use-after-free.
    bool pinned = false;
    std::size_t idle_pumps = 0;  ///< Pumps since the session last had work.
    std::size_t retained_corrections = 0;
    std::size_t retained_processed = 0;
    std::size_t retained_dropped = 0;
    LatencyRecorder retained_latency;
  };

  /// One shard: an independent mutex + slot vector + idle clock. Slots
  /// are held by pointer so Slot addresses stay stable across growth.
  struct Shard {
    mutable std::mutex mutex;
    /// Index = session id / shard count. A briefly-null entry means an
    /// open_session on a lower id in this shard is still in flight.
    std::vector<std::unique_ptr<Slot>> slots;
  };

  /// One live slot's observation from the pump's pinning pass.
  struct Observed {
    Session* session;
    std::size_t index;  ///< Slot index within the shard.
    bool busy;          ///< Had pending work (and was pinned) at observe.
  };

  Shard& shard_of(std::size_t session_id) const;
  /// Slot lookup; the caller must hold `shard.mutex`.
  Slot& slot_locked(Shard& shard, std::size_t session_id) const;
  /// Evicts `slot` (must be live, unpinned, empty queue); caller holds
  /// the shard mutex.
  void evict_locked(Slot& slot, std::size_t id);
  /// The one place a Session is built from a blob: constructs it from
  /// `blob` and only then commits it to `slot` (live again, idle clock
  /// and retained stats reset). A rejected blob throws and leaves the
  /// slot as it was. Caller holds the shard mutex.
  void restore_locked(Slot& slot, std::span<const std::byte> blob);
  void add_pump_seconds(double dt);

  ServeOptions opts_;
  std::unique_ptr<ThreadPool> pool_;  ///< Null when threads == 0.
  std::shared_ptr<SnapshotStore> store_;

  /// Guards definitions_ and contexts_ (both insert-only).
  mutable std::mutex defs_mutex_;
  std::map<std::string, std::shared_ptr<const core::MapResources>>
      definitions_;
  /// (map key, core::scoring_fingerprint) -> the context every session
  /// with that key and fingerprint shares.
  std::map<std::pair<std::string, std::string>,
           std::shared_ptr<const core::ScoringContext>>
      contexts_;

  std::vector<std::unique_ptr<Shard>> shards_;  ///< Fixed at construction.
  std::atomic<std::size_t> next_id_{0};

  std::atomic<double> pump_seconds_{0.0};  ///< Advanced by pump() only.
};

/// Hexfloat dump of every session's correction trace: per session, one
/// line of id, map key, corrections and dropped inputs, then one line of
/// t, x, y and yaw per correction. Every session must be live. The same
/// battery must dump byte-identically in any process and under any pump
/// schedule; the serving smoke digest (ServeGolden.SmokeBattery) hashes
/// it.
std::string correction_trace(const SessionManager& mgr);

}  // namespace tofmcl::serve
