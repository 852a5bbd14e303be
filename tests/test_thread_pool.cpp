// Tests for the thread pool's fork-join call and the static chunk
// partitioning that mirrors the GAP9 cluster's per-core particle
// distribution.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace tofmcl {
namespace {

TEST(ChunkBegin, PartitionsEvenly) {
  // 10 elements over 4 chunks: sizes 3,3,2,2.
  EXPECT_EQ(chunk_begin(10, 4, 0), 0u);
  EXPECT_EQ(chunk_begin(10, 4, 1), 3u);
  EXPECT_EQ(chunk_begin(10, 4, 2), 6u);
  EXPECT_EQ(chunk_begin(10, 4, 3), 8u);
  EXPECT_EQ(chunk_begin(10, 4, 4), 10u);
}

TEST(ChunkBegin, ExactDivision) {
  for (std::size_t i = 0; i <= 8; ++i) {
    EXPECT_EQ(chunk_begin(64, 8, i), i * 8);
  }
}

TEST(ChunkBegin, CoversWholeRangeProperty) {
  for (std::size_t count : {1u, 7u, 64u, 1000u, 16384u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 8u}) {
      EXPECT_EQ(chunk_begin(count, chunks, 0), 0u);
      EXPECT_EQ(chunk_begin(count, chunks, chunks), count);
      for (std::size_t i = 0; i < chunks; ++i) {
        const std::size_t b = chunk_begin(count, chunks, i);
        const std::size_t e = chunk_begin(count, chunks, i + 1);
        EXPECT_LE(b, e);
        // Chunk sizes differ by at most one.
        const std::size_t size = e - b;
        EXPECT_GE(size + 1, count / chunks);
        EXPECT_LE(size, count / chunks + 1);
      }
    }
  }
}

TEST(ThreadPool, ParallelForTouchesEveryIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(touched.size(),
                    [&touched](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCount) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&called](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelChunksCoverRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  std::atomic<int> chunks_seen{0};
  pool.parallel_chunks(touched.size(), 8,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         chunks_seen.fetch_add(1);
                         for (std::size_t i = begin; i < end; ++i) {
                           touched[i].fetch_add(1);
                         }
                       });
  EXPECT_EQ(chunks_seen.load(), 8);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ChunksClampedToCount) {
  ThreadPool pool(4);
  std::atomic<int> chunks_seen{0};
  pool.parallel_chunks(3, 8,
                       [&](std::size_t, std::size_t, std::size_t) {
                         chunks_seen.fetch_add(1);
                       });
  EXPECT_EQ(chunks_seen.load(), 3);
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  ThreadPool pool(4);
  std::vector<double> values(10000);
  std::iota(values.begin(), values.end(), 0.0);
  std::vector<double> partial(8, 0.0);
  pool.parallel_chunks(values.size(), 8,
                       [&](std::size_t c, std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) {
                           partial[c] += values[i];
                         }
                       });
  const double serial = std::accumulate(values.begin(), values.end(), 0.0);
  const double parallel =
      std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(parallel, serial);
}

TEST(ThreadPool, SizeReflectsConstruction) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

// Regression: a throwing chunk used to escape worker_loop → std::terminate.
// The first exception must surface on the calling thread, after all
// chunks completed.
TEST(ThreadPool, ParallelChunksRethrowsFirstException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_chunks(100, 8,
                           [&](std::size_t chunk, std::size_t, std::size_t) {
                             if (chunk == 5) {
                               throw std::runtime_error("chunk 5 failed");
                             }
                             completed.fetch_add(1);
                           }),
      std::runtime_error);
  // Every non-throwing chunk still ran; nothing was abandoned mid-flight.
  EXPECT_EQ(completed.load(), 7);
  // The pool is still healthy: later work runs.
  std::atomic<int> counter{0};
  pool.parallel_for(50, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, ParallelChunksRethrowsCallerChunkException) {
  // Chunk 0 runs on the calling thread; its exception must surface too,
  // and only after the pool-side chunks finished (no dangling tasks).
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_chunks(40, 4,
                           [&](std::size_t chunk, std::size_t, std::size_t) {
                             if (chunk == 0) {
                               throw std::runtime_error("caller chunk failed");
                             }
                             completed.fetch_add(1);
                           }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 3);
}

// Nested fork-join: a chunk calling parallel_chunks on its own pool must
// not deadlock even when outer chunks occupy every worker — each waiting
// thread runs queued chunks instead of blocking.
TEST(ThreadPool, NestedParallelChunksFromPoolTasks) {
  ThreadPool pool(2);  // fewer workers than outer tasks, on purpose
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 64;
  std::array<std::array<std::atomic<int>, kInner>, kOuter> touched{};
  pool.parallel_for(kOuter, [&pool, &touched](std::size_t o) {
    pool.parallel_chunks(kInner, 8,
                         [&touched, o](std::size_t, std::size_t begin,
                                       std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i) {
                             touched[o][i].fetch_add(1);
                           }
                         });
  });
  for (const auto& row : touched) {
    for (const auto& cell : row) EXPECT_EQ(cell.load(), 1);
  }
}

}  // namespace
}  // namespace tofmcl
