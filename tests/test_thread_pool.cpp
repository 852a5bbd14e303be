// Tests for the thread pool and the static chunk partitioning that mirrors
// the GAP9 cluster's per-core particle distribution.

#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
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

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
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

// Regression: a throwing chunk used to escape worker_loop → std::terminate,
// and a surviving pool would have deadlocked wait_idle() because the
// in_flight_ decrement was skipped. The first exception must now surface
// on the calling thread, after all chunks completed.
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
  // The pool is still healthy: bookkeeping balanced, later work runs.
  pool.wait_idle();
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
  pool.wait_idle();
}

TEST(ThreadPool, SubmitExceptionSurfacesAtWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); });
  pool.submit([] { throw std::runtime_error("task failed"); });
  pool.submit([&ran] { ran.fetch_add(1); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
  // The error is consumed: the next wait_idle is clean.
  pool.wait_idle();
}

// Regression (serving workload shape): a chunk task stolen by the helping
// wait used to deadlock forever if it blocked on wait_idle(), because the
// single in-flight counter included the caller's own still-running task.
// With task-category separation, wait_idle tracks general tasks only and
// a chunk may wait for the general queue to drain. Pre-fix this test
// hangs (ctest timeout); post-fix it completes.
TEST(ThreadPool, WaitIdleInsideChunkTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> general_ran{0};
  pool.submit([&general_ran] { general_ran.fetch_add(1); });
  std::atomic<int> chunks_ran{0};
  pool.parallel_chunks(8, 4,
                       [&](std::size_t, std::size_t, std::size_t) {
                         pool.wait_idle();  // used to hang on itself
                         chunks_ran.fetch_add(1);
                       });
  EXPECT_EQ(general_ran.load(), 1);
  EXPECT_EQ(chunks_ran.load(), 4);
}

// Regression (serving workload shape): a pool task that fans subtasks out
// and waits for just those. With wait_idle this deadlocked on a 1-thread
// pool (the task's own in-flight slot never cleared and nobody was left
// to run the subtasks); TaskGroup waits help drain the queue and track
// only their own batch.
TEST(ThreadPool, NestedSubmitAndGroupWaitFromPoolTask) {
  ThreadPool pool(1);  // one worker: the nested waiter MUST help
  std::atomic<int> inner{0};
  ThreadPool::TaskGroup outer;
  pool.submit(
      [&] {
        ThreadPool::TaskGroup batch;
        for (int i = 0; i < 4; ++i) {
          pool.submit([&inner] { inner.fetch_add(1); }, batch);
        }
        pool.wait(batch);
        EXPECT_EQ(inner.load(), 4);
      },
      outer);
  pool.wait(outer);
  EXPECT_EQ(inner.load(), 4);
}

TEST(ThreadPool, WaitIdleFromInsidePoolTaskExcludesOwnStack) {
  ThreadPool pool(1);
  std::atomic<int> inner{0};
  ThreadPool::TaskGroup outer;
  pool.submit(
      [&] {
        pool.submit([&inner] { inner.fetch_add(1); });
        // Waits for the subtask (helping to run it), not for itself.
        pool.wait_idle();
        EXPECT_EQ(inner.load(), 1);
      },
      outer);
  pool.wait(outer);
  EXPECT_EQ(inner.load(), 1);
}

TEST(ThreadPool, TaskGroupTracksOnlyItsOwnTasks) {
  ThreadPool pool(2);
  std::atomic<bool> release{false};
  std::atomic<int> grouped{0};
  // An unrelated slow task must not delay the group wait.
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  ThreadPool::TaskGroup group;
  for (int i = 0; i < 8; ++i) {
    pool.submit([&grouped] { grouped.fetch_add(1); }, group);
  }
  pool.wait(group);
  EXPECT_EQ(grouped.load(), 8);
  release.store(true);
  pool.wait_idle();
}

TEST(ThreadPool, TaskGroupRethrowsFirstErrorAndIsReusable) {
  ThreadPool pool(2);
  ThreadPool::TaskGroup group;
  std::atomic<int> ran{0};
  pool.submit([&ran] { ran.fetch_add(1); }, group);
  pool.submit([] { throw std::runtime_error("group task failed"); }, group);
  pool.submit([&ran] { ran.fetch_add(1); }, group);
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  EXPECT_EQ(ran.load(), 2);
  // Group errors must NOT leak into the pool-wide slot...
  pool.wait_idle();
  // ...and the group is reusable once drained.
  pool.submit([&ran] { ran.fetch_add(1); }, group);
  pool.wait(group);
  EXPECT_EQ(ran.load(), 3);
}

// Nested fork-join: a pool task calling parallel_chunks on its own pool
// must not deadlock even when run-level tasks occupy every worker — the
// waiting thread helps drain the queue. This is the shape of pool tasks
// that each drive a ThreadPoolExecutor filter on the same pool, which the
// pool's contract allows.
TEST(ThreadPool, NestedParallelChunksFromPoolTasks) {
  ThreadPool pool(2);  // fewer workers than outer tasks, on purpose
  constexpr std::size_t kOuter = 6;
  constexpr std::size_t kInner = 64;
  std::array<std::array<std::atomic<int>, kInner>, kOuter> touched{};
  for (std::size_t o = 0; o < kOuter; ++o) {
    pool.submit([&pool, &touched, o] {
      pool.parallel_chunks(kInner, 8,
                           [&touched, o](std::size_t, std::size_t begin,
                                         std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               touched[o][i].fetch_add(1);
                             }
                           });
    });
  }
  pool.wait_idle();
  for (const auto& row : touched) {
    for (const auto& cell : row) EXPECT_EQ(cell.load(), 1);
  }
}

}  // namespace
}  // namespace tofmcl
