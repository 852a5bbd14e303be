#include "serve/session_manager.hpp"
// TOFMCL_LINT_ALLOW_FILE(wall-clock): pump() measures its own wall time
// for the throughput report; correction traces never read the clock, and
// eviction idleness is counted in pump generations, not seconds.

#include <algorithm>
#include <chrono>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

namespace tofmcl::serve {

SessionManager::SessionManager(ServeOptions opts) : opts_(std::move(opts)) {
  TOFMCL_EXPECTS(opts_.shards >= 1, "need at least one shard");
  TOFMCL_EXPECTS(opts_.pump_batch >= 1, "pump batch must be >= 1");
  if (opts_.threads > 0) pool_ = std::make_unique<ThreadPool>(opts_.threads);
  store_ = opts_.store ? opts_.store
                       : std::make_shared<InMemorySnapshotStore>();
  shards_.reserve(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionManager::Shard& SessionManager::shard_of(std::size_t session_id) const {
  return *shards_[session_id % shards_.size()];
}

SessionManager::Slot& SessionManager::slot_locked(
    Shard& shard, std::size_t session_id) const {
  TOFMCL_EXPECTS(session_id < next_id_.load(std::memory_order_acquire),
                 "unknown session id");
  const std::size_t index = session_id / shards_.size();
  TOFMCL_EXPECTS(index < shard.slots.size() &&
                     shard.slots[index] != nullptr,
                 "session is still opening");
  return *shard.slots[index];
}

void SessionManager::define_map(
    const std::string& key, std::shared_ptr<const core::MapResources> maps) {
  TOFMCL_EXPECTS(maps != nullptr, "map resources must be non-null");
  std::lock_guard<std::mutex> lock(defs_mutex_);
  TOFMCL_EXPECTS(definitions_.find(key) == definitions_.end(),
                 "map key already defined");
  definitions_.emplace(key, std::move(maps));
}

bool SessionManager::has_map(const std::string& key) const {
  std::lock_guard<std::mutex> lock(defs_mutex_);
  return definitions_.find(key) != definitions_.end();
}

std::size_t SessionManager::open_session(const std::string& map_key,
                                         const SessionOptions& opts) {
  // One ScoringContext per (map, scoring fingerprint): sessions that
  // differ only in SessionKnobs (seed, particle budget — excluded from
  // the fingerprint) share it, and with it the per-map particle arena.
  // On prebuilt resources the build is a config copy and a few checks, so
  // it runs under the lock; a config the map rejects throws before the
  // insert and before an id is taken.
  std::pair<std::string, std::string> ctx_key(
      map_key, core::scoring_fingerprint(opts.config));
  std::shared_ptr<const core::ScoringContext> ctx;
  {
    std::lock_guard<std::mutex> lock(defs_mutex_);
    const auto def = definitions_.find(map_key);
    TOFMCL_EXPECTS(def != definitions_.end(), "unknown map key");
    auto it = contexts_.find(ctx_key);
    if (it == contexts_.end()) {
      auto built = core::build_scoring_context(def->second, opts.config);
      it = contexts_.emplace(std::move(ctx_key), std::move(built)).first;
    }
    ctx = it->second;
  }
  // The Session is built before an id is taken, so an open its
  // constructor rejects leaves no id behind. Dense id assignment
  // round-robins sessions across shards; only the owning shard is locked
  // to place the slot, so opens on different shards never contend.
  auto slot = std::make_unique<Slot>();
  slot->live = std::make_unique<Session>(map_key, ctx, opts);
  const std::size_t id = next_id_.fetch_add(1, std::memory_order_acq_rel);
  slot->map_key = map_key;
  slot->ctx = std::move(ctx);
  slot->opts = opts;
  Shard& shard = shard_of(id);
  const std::size_t index = id / shards_.size();
  std::lock_guard<std::mutex> lock(shard.mutex);
  if (index >= shard.slots.size()) shard.slots.resize(index + 1);
  shard.slots[index] = std::move(slot);
  return id;
}

Admission SessionManager::push(std::size_t session_id, SessionInput input) {
  Shard& shard = shard_of(session_id);
  // The enqueue runs under the SHARD lock (not a global one): it is a
  // bounded-deque operation, and holding the lock closes the race where
  // an evictor destroys the Session between lookup and enqueue. Pushes
  // on other shards proceed concurrently.
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, session_id);
  // Transparent restore: an evicted session comes back from its blob
  // the moment traffic returns. (Construction under the lock is the
  // exception to push() being cheap; it only happens on the first push
  // after an eviction.)
  if (!slot.live) {
    auto blob = store_->take(session_id);
    TOFMCL_EXPECTS(blob.has_value(),
                   "evicted session has no stashed snapshot");
    try {
      restore_locked(slot, *blob);
    } catch (...) {
      // The store has no peek: put a rejected stash back, so the session
      // stays evicted with its blob instead of losing it.
      store_->put(session_id, std::move(*blob));
      throw;
    }
  }
  return slot.live->push(std::move(input));
}

std::size_t SessionManager::pump() {
  const auto t0 = std::chrono::steady_clock::now();

  // Pinning pass, per shard: observe every live slot once under the
  // shard lock; a slot with pending work is marked pinned so a
  // concurrent evict_idle() can neither destroy nor snapshot a Session
  // whose task is (or is about to be) in flight. Idle slots are only
  // remembered for the idle-clock epilogue — their Session pointer is
  // never dereferenced, because an evictor may legitimately destroy
  // them mid-pump.
  std::vector<std::vector<Observed>> plan(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto& observed = plan[s];
    observed.reserve(shard.slots.size());
    for (std::size_t index = 0; index < shard.slots.size(); ++index) {
      Slot* slot = shard.slots[index].get();
      if (slot == nullptr || !slot->live) continue;
      const bool busy = slot->live->has_pending();
      if (busy) slot->pinned = true;
      observed.push_back({slot->live.get(), index, busy});
    }
  }

  // Map-affine batching: a shard's busy sessions are grouped by map key
  // and drained `pump_batch` at a time by one task, so a run stays inside
  // one map's EDT/LUT working set instead of hopping maps per session
  // (and 100k sessions make thousands of tasks, not 100k).
  std::vector<std::vector<Session*>> batches;
  for (const auto& observed : plan) {
    std::map<std::string_view, std::vector<Session*>> by_map;
    for (const Observed& o : observed) {
      if (o.busy) by_map[o.session->map_key()].push_back(o.session);
    }
    for (const auto& [key, sessions] : by_map) {
      for (std::size_t base = 0; base < sessions.size();
           base += opts_.pump_batch) {
        const std::size_t end =
            std::min(sessions.size(), base + opts_.pump_batch);
        batches.emplace_back(sessions.begin() + base, sessions.begin() + end);
      }
    }
  }
  std::atomic<std::size_t> total{0};
  const auto drain = [&batches, &total](std::size_t b) {
    std::size_t n = 0;
    for (Session* session : batches[b]) n += session->process_pending();
    total += n;
  };
  if (pool_) {
    pool_->parallel_for(batches.size(), drain);
  } else {
    for (std::size_t b = 0; b < batches.size(); ++b) drain(b);
  }

  // Epilogue, per shard: unpin, advance the idle clock.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const Observed& o : plan[s]) {
      Slot* slot = shard.slots[o.index].get();
      if (o.busy) {
        // Pinned slots cannot have been evicted or swapped mid-pump.
        slot->pinned = false;
        slot->idle_pumps = 0;
      } else {
        // An idle slot may have been evicted (live == null) or evicted
        // AND restored (fresh Session, counter already 0) mid-pump; the
        // stale pointer must not touch it.
        if (slot->live.get() != o.session) continue;
        ++slot->idle_pumps;
      }
    }
  }

  add_pump_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  return total.load();
}

void SessionManager::add_pump_seconds(double dt) {
  // No atomic<double>::fetch_add before C++20 libstdc++ grew it
  // everywhere we build; a CAS loop on an uncontended counter is free.
  double cur = pump_seconds_.load(std::memory_order_relaxed);
  while (!pump_seconds_.compare_exchange_weak(cur, cur + dt,
                                              std::memory_order_relaxed)) {
  }
}

void SessionManager::evict_locked(Slot& slot, std::size_t id) {
  // Retain the stats report() needs while the Session object is gone;
  // the blob carries the same numbers for the eventual restore.
  slot.retained_corrections = slot.live->corrections();
  slot.retained_processed = slot.live->processed_inputs();
  slot.retained_dropped = slot.live->dropped_inputs();
  slot.retained_latency = slot.live->latency();
  store_->put(id, slot.live->snapshot());
  // Destroying the Session releases its SoA blocks into the arena pool.
  slot.live.reset();
}

void SessionManager::restore_locked(Slot& slot,
                                    std::span<const std::byte> blob) {
  slot.live = std::make_unique<Session>(slot.map_key, slot.ctx, slot.opts,
                                        blob);
  slot.idle_pumps = 0;
  // The restored Session carries its counters again.
  slot.retained_corrections = 0;
  slot.retained_processed = 0;
  slot.retained_dropped = 0;
  slot.retained_latency = LatencyRecorder{};
}

std::vector<std::byte> SessionManager::snapshot_session(
    std::size_t session_id) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, session_id);
  TOFMCL_EXPECTS(slot.live != nullptr, "cannot snapshot an evicted session");
  TOFMCL_EXPECTS(!slot.pinned,
                 "cannot snapshot a session while its pump task is in flight");
  return slot.live->snapshot();
}

void SessionManager::restore_session(std::size_t session_id,
                                     std::span<const std::byte> blob) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, session_id);
  TOFMCL_EXPECTS(!slot.pinned,
                 "cannot restore a session while its pump task is in flight");
  if (slot.live) {
    TOFMCL_EXPECTS(!slot.live->has_pending(),
                   "cannot restore over pending inputs (pump first)");
  }
  // Restore before touching the store: a rejected blob must leave an
  // evicted session's stashed snapshot in place. Once it succeeded, the
  // explicit restore supersedes whatever eviction stashed.
  restore_locked(slot, blob);
  store_->take(session_id);
}

void SessionManager::evict_session(std::size_t session_id) {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, session_id);
  TOFMCL_EXPECTS(slot.live != nullptr, "session already evicted");
  TOFMCL_EXPECTS(!slot.pinned,
                 "cannot evict a session while its pump task is in flight");
  evict_locked(slot, session_id);
}

std::size_t SessionManager::evict_idle(std::size_t min_idle_pumps) {
  std::size_t evicted = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (std::size_t index = 0; index < shard.slots.size(); ++index) {
      Slot* slot = shard.slots[index].get();
      if (slot == nullptr || !slot->live) continue;
      // A pinned slot has (or may have) a pump task in flight — evicting
      // it would destroy the Session under the task's feet. Skip; the
      // slot stays eligible for the next sweep.
      if (slot->pinned) continue;
      if (slot->idle_pumps < min_idle_pumps) continue;
      if (slot->live->has_pending()) continue;
      evict_locked(*slot, index * shards_.size() + s);
      ++evicted;
    }
  }
  return evicted;
}

std::size_t SessionManager::num_sessions() const {
  return next_id_.load(std::memory_order_acquire);
}

std::size_t SessionManager::live_sessions() const {
  std::size_t live = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& slot : shard->slots) {
      live += slot != nullptr && slot->live != nullptr;
    }
  }
  return live;
}

std::size_t SessionManager::evicted_sessions() const {
  std::size_t evicted = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (const auto& slot : shard->slots) {
      evicted += slot != nullptr && slot->live == nullptr;
    }
  }
  return evicted;
}

bool SessionManager::session_live(std::size_t session_id) const {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  return slot_locked(shard, session_id).live != nullptr;
}

const Session& SessionManager::session(std::size_t session_id) const {
  Shard& shard = shard_of(session_id);
  std::lock_guard<std::mutex> lock(shard.mutex);
  Slot& slot = slot_locked(shard, session_id);
  TOFMCL_EXPECTS(slot.live != nullptr,
                 "session is evicted (push to restore it)");
  return *slot.live;
}

ServeReport SessionManager::report() const {
  ServeReport rep;
  rep.pump_seconds = pump_seconds_.load(std::memory_order_relaxed);

  std::map<std::string, MapReport> by_map;
  std::map<std::string, LatencyRecorder> by_map_latency;
  LatencyRecorder global;
  std::set<const core::ParticleArena*> arenas;
  // Shards are scanned one at a time under their own locks: a report
  // never stalls pushes on every shard at once, and it is safe while a
  // pump is in flight — live-session stats come from the Session's
  // atomics and guarded latency merge, never from the localizer's
  // mutable filter state.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    ShardReport sh;
    sh.shard = s;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& slot_ptr : shard.slots) {
      if (slot_ptr == nullptr) continue;
      const Slot& slot = *slot_ptr;
      ++sh.sessions;
      MapReport& m = by_map[slot.map_key];
      m.map = slot.map_key;
      ++m.sessions;
      std::size_t corrections = 0, processed = 0, dropped = 0;
      LatencyRecorder& map_latency = by_map_latency[slot.map_key];
      if (slot.live) {
        ++sh.live_sessions;
        corrections = slot.live->corrections();
        processed = slot.live->processed_inputs();
        dropped = slot.live->dropped_inputs();
        slot.live->merge_latency_into(global);
        slot.live->merge_latency_into(map_latency);
        rep.active_particles += slot.live->active_particles();
        rep.resident_particle_bytes += slot.live->resident_particle_bytes();
      } else {
        ++sh.evicted_sessions;
        corrections = slot.retained_corrections;
        processed = slot.retained_processed;
        dropped = slot.retained_dropped;
        global.merge(slot.retained_latency);
        map_latency.merge(slot.retained_latency);
      }
      m.corrections += corrections;
      m.processed_inputs += processed;
      m.dropped_inputs += dropped;
      rep.corrections += corrections;
      rep.processed_inputs += processed;
      rep.dropped_inputs += dropped;
      if (slot.ctx) arenas.insert(slot.ctx->arena().get());
    }
    rep.sessions += sh.sessions;
    rep.live_sessions += sh.live_sessions;
    rep.evicted_sessions += sh.evicted_sessions;
    rep.per_shard.push_back(sh);
  }
  rep.latency = global.summarize();
  rep.stashed_snapshot_bytes = store_->bytes();
  for (const core::ParticleArena* arena : arenas) {
    if (arena != nullptr) rep.arena_pooled_bytes += arena->stats().pooled_bytes;
  }
  if (rep.pump_seconds > 0.0) {
    rep.corrections_per_second =
        static_cast<double>(rep.corrections) / rep.pump_seconds;
  }
  for (auto& [key, m] : by_map) {
    m.latency = by_map_latency[key].summarize();
    rep.per_map.push_back(std::move(m));
  }
  return rep;
}

std::string correction_trace(const SessionManager& mgr) {
  std::ostringstream trace;
  trace << std::hexfloat;
  for (std::size_t id = 0; id < mgr.num_sessions(); ++id) {
    const Session& s = mgr.session(id);
    trace << id << ' ' << s.map_key() << ' ' << s.corrections() << ' '
          << s.dropped_inputs() << '\n';
    for (const CorrectionRecord& r : s.trace()) {
      trace << r.t << ' ' << r.pose.position.x << ' ' << r.pose.position.y
            << ' ' << r.pose.yaw << '\n';
    }
  }
  return trace.str();
}

}  // namespace tofmcl::serve
