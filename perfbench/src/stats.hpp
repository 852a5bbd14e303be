#pragma once
// Order statistics for the benchmark's timings.
//
// Percentiles use the nearest-rank definition: the q-quantile of n samples
// is the ceil(q*n)-th smallest, so exactly n - ceil(q*n) samples lie beyond
// it. A tail percentile is reported only when at least kMinBeyond samples
// lie beyond it; below that a single outlier decides the number.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of quantile q in n samples.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) throw std::invalid_argument("rank of an empty sample");
  // The epsilon keeps q*n that is mathematically integral (0.99*1000)
  // from rounding up a rank through binary representation error.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}

/// Samples strictly beyond the nearest-rank q-quantile.
inline std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

/// Nearest-rank q-quantile. Reorders `v` (nth_element).
inline double quantile(std::vector<double>& v, double q) {
  const std::size_t k = nearest_rank(v.size(), q) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// The quantile q if at least kMinBeyond samples lie beyond it, else
/// nullopt. Reorders `v`.
inline std::optional<double> supported_quantile(std::vector<double>& v,
                                                double q) {
  if (v.empty() || samples_beyond(v.size(), q) < kMinBeyond) {
    return std::nullopt;
  }
  return quantile(v, q);
}

/// The highest of the ladder {0.999, 0.99, 0.9, 0.5} that n samples
/// support, or nullopt when even the median has fewer than kMinBeyond
/// samples beyond it (n < 20).
inline std::optional<double> highest_supported_percentile(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    if (n > 0 && samples_beyond(n, q) >= kMinBeyond) return q;
  }
  return std::nullopt;
}

/// Median, highest supported tail percentile and count of one timing.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< 0 when no tail percentile is supported.
  double tail = 0.0;
};

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.count = v.size();
  if (v.empty()) return s;
  s.p50 = quantile(v, 0.5);
  if (const auto q = highest_supported_percentile(v.size())) {
    s.tail_q = *q;
    s.tail = quantile(v, *q);
  }
  return s;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// Median of a small set (e.g. repeated set-up times). Copies.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return quantile(v, 0.5);
}

/// Batch index of virtual tick k when a recording of `len` batches is
/// replayed forward, backward, forward, ... (0 1 2 3 2 1 0 1 ...).
inline std::size_t pingpong(std::size_t k, std::size_t len) {
  if (len <= 1) return 0;
  const std::size_t period = 2 * (len - 1);
  const std::size_t m = k % period;
  return m < len ? m : period - m;
}

}  // namespace perfbench
