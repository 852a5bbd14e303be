#include "serve/session.hpp"

#include <utility>

#include "map/snapshot_io.hpp"

namespace tofmcl::serve {

namespace {

constexpr std::uint32_t kSessionMagic = 0x53455353u;  // "SESS"
constexpr std::uint16_t kSessionVersion = 1;
/// Magic, version and the five u64 counters and record counts.
constexpr std::size_t kHeaderBytes = 4 + 2 + 5 * 8;

core::SessionKnobs knobs_of(const SessionOptions& opts) {
  core::SessionKnobs knobs;
  knobs.seed = opts.config.mcl.seed;
  knobs.num_particles = opts.config.mcl.num_particles;
  return knobs;
}

/// Reads a record count and rejects one the rest of the blob cannot hold
/// before anything is allocated for it, so an inflated count is an
/// IoError like any other corrupt blob.
std::uint64_t read_count(map::SnapshotReader& reader, std::size_t record_bytes,
                         const char* what) {
  const std::uint64_t count = reader.u64();
  if (count > reader.remaining() / record_bytes) {
    throw IoError(std::string("session snapshot: ") + what +
                  " count exceeds the blob");
  }
  return count;
}

}  // namespace

Session::Session(Unstarted, std::string map_key,
                 std::shared_ptr<const core::ScoringContext> ctx,
                 const SessionOptions& opts)
    : map_key_(std::move(map_key)),
      localizer_(std::move(ctx), knobs_of(opts), executor_),
      capacity_(opts.queue_capacity) {
  TOFMCL_EXPECTS(capacity_ >= 1, "session queue capacity must be >= 1");
}

Session::Session(std::string map_key,
                 std::shared_ptr<const core::ScoringContext> ctx,
                 const SessionOptions& opts)
    : Session(Unstarted{}, std::move(map_key), std::move(ctx), opts) {
  if (opts.start) {
    localizer_.start_at(opts.start->pose, opts.start->sigma_xy,
                        opts.start->sigma_yaw);
  } else {
    localizer_.start_global();
  }
  refresh_footprint();
}

Session::Session(std::string map_key,
                 std::shared_ptr<const core::ScoringContext> ctx,
                 const SessionOptions& opts, std::span<const std::byte> blob)
    : Session(Unstarted{}, std::move(map_key), std::move(ctx), opts) {
  map::SnapshotReader reader(blob);
  if (reader.u32() != kSessionMagic) {
    throw IoError("session snapshot: bad magic");
  }
  const std::uint16_t version = reader.u16();
  if (version != kSessionVersion) {
    throw IoError("session snapshot: version " + std::to_string(version) +
                  " != supported " + std::to_string(kSessionVersion));
  }
  corrections_ = reader.u64();
  processed_inputs_ = reader.u64();
  dropped_inputs_ = reader.u64();
  // Clock differences: one NaN sample would make report()'s mean NaN.
  std::vector<double> latencies(read_count(reader, 8, "latency sample"));
  reader.durations(latencies);
  latency_ = LatencyRecorder(std::move(latencies));
  const std::uint64_t trace_count = read_count(reader, 32, "trace record");
  trace_.reserve(trace_count);
  for (std::uint64_t i = 0; i < trace_count; ++i) {
    CorrectionRecord rec;
    rec.t = reader.f64();
    rec.pose.position.x = reader.f64();
    rec.pose.position.y = reader.f64();
    rec.pose.yaw = reader.f64();
    trace_.push_back(rec);
  }
  localizer_.load_snapshot(reader);
  if (!reader.exhausted()) {
    throw IoError("session snapshot: trailing bytes");
  }
  refresh_footprint();
}

void Session::refresh_footprint() {
  active_particles_.store(localizer_.active_particles(),
                          std::memory_order_relaxed);
  resident_bytes_.store(localizer_.resident_particle_bytes(),
                        std::memory_order_relaxed);
}

std::vector<std::byte> Session::snapshot() {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    TOFMCL_EXPECTS(queue_.empty(),
                   "cannot snapshot a session with pending inputs "
                   "(pump first)");
    dropped = dropped_inputs_;
  }
  map::SnapshotWriter writer;
  writer.reserve(kHeaderBytes + 8 * latency_.count() + 32 * trace_.size() +
                 localizer_.snapshot_bytes());
  writer.u32(kSessionMagic);
  writer.u16(kSessionVersion);
  writer.u64(corrections_);
  writer.u64(processed_inputs_);
  writer.u64(dropped);
  writer.u64(latency_.count());
  writer.array(latency_.samples());
  writer.u64(trace_.size());
  for (const CorrectionRecord& rec : trace_) {
    writer.f64(rec.t);
    writer.f64(rec.pose.position.x);
    writer.f64(rec.pose.position.y);
    writer.f64(rec.pose.yaw);
  }
  localizer_.save_snapshot(writer);
  return writer.take();
}

Admission Session::push(SessionInput input) {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  if (queue_.size() >= capacity_) {
    queue_.pop_front();
    ++dropped_inputs_;
    queue_.push_back(std::move(input));
    return Admission::kDroppedOldest;
  }
  queue_.push_back(std::move(input));
  return queue_.size() * 2 >= capacity_ ? Admission::kSaturated
                                        : Admission::kAccepted;
}

bool Session::has_pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return !queue_.empty();
}

std::size_t Session::process_pending() {
  // Take the whole backlog in one swap so producers are blocked for a
  // pointer exchange, not for the filter work.
  std::deque<SessionInput> batch;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    batch.swap(queue_);
  }
  std::size_t corrected_now = 0;
  std::size_t processed_now = 0;
  // New latency samples land in a local scratch and merge under the stats
  // guard once per batch, so a concurrent report() never observes the
  // recorder mid-append and the hot loop takes no lock per correction.
  std::vector<double> latencies;
  for (SessionInput& input : batch) {
    localizer_.on_odometry(input.odometry);
    if (!input.frames.empty()) {
      if (localizer_.on_frames(input.frames)) {
        ++corrected_now;
        latencies.push_back(localizer_.last_correction_seconds());
        trace_.push_back({input.t, localizer_.estimate().pose});
      }
    }
    ++processed_now;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const double s : latencies) latency_.record(s);
  }
  processed_inputs_.fetch_add(processed_now, std::memory_order_relaxed);
  corrections_.fetch_add(corrected_now, std::memory_order_relaxed);
  refresh_footprint();
  return corrected_now;
}

}  // namespace tofmcl::serve
