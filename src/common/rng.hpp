#pragma once
/// \file rng.hpp
/// \brief Deterministic, seedable random number generation.
///
/// All stochastic components (motion noise, sensor noise, resampling,
/// particle initialization) draw from this generator so that every
/// experiment in the paper-reproduction suite is reproducible from a single
/// seed. The engine is xoshiro256++ (small state, excellent statistical
/// quality, trivially portable), seeded through SplitMix64 as recommended by
/// its authors.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace tofmcl {

/// SplitMix64: used to expand a single 64-bit seed into engine state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine. Satisfies the essentials of
/// std::uniform_random_bit_generator so it can be used with <random>
/// distributions, though tofmcl uses its own distribution helpers for exact
/// cross-platform reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit constexpr Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  constexpr std::uint64_t operator()() { return next(); }

  constexpr std::uint64_t next() { return step(state_); }

  /// Fills `out` with what out.size() successive next() calls return. The
  /// state stays in locals for the whole loop; a loop of next() calls
  /// that stores each output through a pointer reloads it every step.
  /// Bulk samplers (the AVX2 motion kernel) draw through this.
  constexpr void next_n(std::span<std::uint64_t> out) {
    std::array<std::uint64_t, 4> s = state_;
    for (std::uint64_t& r : out) r = step(s);
    state_ = s;
  }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal via Marsaglia polar method (cached second deviate).
  double gaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * factor;
    has_cached_ = true;
    return u * factor;
  }

  /// Normal with the given mean and standard deviation (σ ≥ 0).
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Fills `out` with exactly what out.size() successive gaussian() calls
  /// return, and leaves the generator in the state they would, cached
  /// spare deviate included: a pending spare is emitted first, and the
  /// unused half of the last pair is cached. gaussian() is the reference.
  /// Polar candidates are drawn a block at a time with a branch-free
  /// accept (a rejected candidate is overwritten in place), and the
  /// block's log calls run back to back, so their latencies overlap.
  void gaussians(std::span<double> out) {
    std::size_t k = 0;
    if (has_cached_ && !out.empty()) {
      out[k++] = cached_;
      has_cached_ = false;
    }
    // Every element read below was written first: no zero-fill.
    std::array<double, kPairBlock> u, v, s, log_s;
    while (k < out.size()) {
      const std::size_t pairs =
          std::min(kPairBlock, (out.size() - k + 1) / 2);
      for (std::size_t m = 0; m < pairs;) {
        u[m] = uniform(-1.0, 1.0);
        v[m] = uniform(-1.0, 1.0);
        s[m] = u[m] * u[m] + v[m] * v[m];
        m += static_cast<std::size_t>((s[m] < 1.0) & (s[m] != 0.0));
      }
      for (std::size_t m = 0; m < pairs; ++m) log_s[m] = std::log(s[m]);
      for (std::size_t m = 0; m < pairs; ++m) {
        const double factor = std::sqrt(-2.0 * log_s[m] / s[m]);
        out[k++] = u[m] * factor;
        cached_ = v[m] * factor;
        if (k < out.size()) {
          out[k++] = cached_;
        } else {
          has_cached_ = true;
        }
      }
    }
  }

  /// Returns true with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Derive an independent child generator; used to give each sequence,
  /// seed-repetition and worker its own stream.
  constexpr Rng fork() { return Rng(next()); }

  /// Full generator state for snapshot/restore. The cached Gaussian
  /// deviate is part of the state: dropping it would desynchronize every
  /// stream restored mid-pair from its straight-through twin.
  struct Snapshot {
    std::array<std::uint64_t, 4> state{};
    double cached = 0.0;
    bool has_cached = false;
  };

  constexpr Snapshot snapshot() const { return {state_, cached_, has_cached_}; }

  constexpr void restore(const Snapshot& s) {
    state_ = s.state;
    cached_ = s.cached;
    has_cached_ = s.has_cached;
  }

 private:
  /// Polar pairs per gaussians() block: 64 deviates.
  static constexpr std::size_t kPairBlock = 32;

  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// One xoshiro256++ step on `s`: the engine's only definition.
  static constexpr std::uint64_t step(std::array<std::uint64_t, 4>& s) {
    const std::uint64_t result = rotl(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace tofmcl
