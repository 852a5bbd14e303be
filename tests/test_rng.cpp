// Statistical and determinism tests for the xoshiro256++ RNG wrapper.
// Determinism across runs underpins the reproducibility of every
// experiment in the bench suite.

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "common/stats.hpp"

namespace tofmcl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, GaussianMoments) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(3.0, 0.5));
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(Rng, GaussianTailFractions) {
  // ~68.3% within 1σ, ~95.4% within 2σ.
  Rng rng(8);
  int within1 = 0;
  int within2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = std::abs(rng.gaussian());
    if (g < 1.0) ++within1;
    if (g < 2.0) ++within2;
  }
  EXPECT_NEAR(static_cast<double>(within1) / n, 0.6827, 0.01);
  EXPECT_NEAR(static_cast<double>(within2) / n, 0.9545, 0.01);
}

// gaussians() is the motion update's block draw; gaussian() is its
// reference. Lengths straddle the 64-deviate block and the motion
// sweep's 192 (3 per particle × 64), from a fresh generator and from one
// holding a spare deviate.
TEST(Rng, GaussiansMatchSequentialDraws) {
  for (const bool pending_spare : {false, true}) {
    for (const std::size_t n :
         {0u, 1u, 2u, 3u, 63u, 64u, 65u, 191u, 192u, 193u, 1000u}) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << n << " pending_spare=" << pending_spare);
      Rng block(21);
      Rng single(21);
      if (pending_spare) {
        block.gaussian();
        single.gaussian();
      }
      std::vector<double> out(n);
      block.gaussians(out);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i], single.gaussian()) << "deviate " << i;
      }
      const Rng::Snapshot a = block.snapshot();
      const Rng::Snapshot b = single.snapshot();
      EXPECT_EQ(a.state, b.state);
      EXPECT_EQ(a.has_cached, b.has_cached);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.cached),
                std::bit_cast<std::uint64_t>(b.cached));
      EXPECT_EQ(block.gaussian(), single.gaussian());
    }
  }
}

TEST(Rng, NextNMatchesSequentialNext) {
  for (const std::size_t n : {0u, 1u, 7u, 192u}) {
    Rng bulk(33);
    Rng single(33);
    std::vector<std::uint64_t> out(n);
    bulk.next_n(out);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], single.next()) << "n=" << n << " output " << i;
    }
    EXPECT_EQ(bulk.snapshot().state, single.snapshot().state) << "n=" << n;
  }
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIndexSingleton) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NoShortCycles) {
  // A tiny state-space bug would show up as repeated outputs quickly.
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 10000u);
}

}  // namespace
}  // namespace tofmcl
