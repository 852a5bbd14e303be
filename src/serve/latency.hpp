#pragma once
/// \file latency.hpp
/// \brief Per-correction latency accounting for the serving layer.
///
/// Each session records the wall-clock duration of every correction into
/// its own recorder (no cross-session contention on the hot path); the
/// SessionManager merges recorders per map and globally when a report is
/// requested. Percentiles are computed exactly from the raw samples —
/// bench runs are bounded (ticks × sessions), so the sample vectors stay
/// small enough that a lossy sketch is not worth its determinism caveats.

#include <cstddef>
#include <utility>
#include <vector>

namespace tofmcl::serve {

/// Order statistics of a merged latency sample set, seconds.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double mean = 0.0;
  double max = 0.0;
  /// True when the sample set was too small to resolve a reported tail
  /// quantile (p99 needs ≥100 samples, p999 ≥1000). The unresolvable
  /// quantiles are clamped to max instead of interpolating between the
  /// top two order statistics — interpolation there UNDER-reports the
  /// tail, which is the one direction a latency report must not err.
  bool low_sample = false;
};

class LatencyRecorder {
 public:
  LatencyRecorder() = default;
  /// Holds `samples` as if each had been record()ed in order.
  explicit LatencyRecorder(std::vector<double> samples)
      : samples_(std::move(samples)) {}
  void record(double seconds) { samples_.push_back(seconds); }
  void merge(const LatencyRecorder& other);
  std::size_t count() const { return samples_.size(); }
  const std::vector<double>& samples() const { return samples_; }

  /// p50/p99/p999/mean/max of everything recorded so far.
  LatencySummary summarize() const;

 private:
  std::vector<double> samples_;
};

}  // namespace tofmcl::serve
