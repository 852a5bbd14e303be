#pragma once
/// \file thread_pool.hpp
/// \brief Fixed-size thread pool with one blocking fork-join call.
///
/// `parallel_chunks` is the host form of the paper's only parallel
/// construct: the particle array split into static contiguous chunks, one
/// per GAP9 cluster core, and joined before the next phase (Fig 4). It is
/// the pool's one way to run work. ThreadPoolExecutor::for_chunks calls it
/// for the filter's phases; the campaign's run and dataset fan-out and the
/// serving pump's map-affine batches call `parallel_for`, the same call
/// with one chunk per index.
///
/// The contract of the call:
///
///  * The caller works while it waits. It runs chunk 0, then runs queued
///    chunks until every chunk of its own call has finished, and sleeps
///    only when the queue is empty. A pool of N workers computes with N + 1
///    threads, and a call made from inside a chunk helps instead of
///    blocking, so nesting cannot deadlock.
///  * Exceptions do not kill the process. A throwing chunk is captured, the
///    other chunks still run, and the first exception is rethrown on the
///    caller after every chunk of the call has finished.
///  * No work outlives its call: there is no detached task and nothing to
///    wait on but the call's own chunks.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tofmcl {

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(chunk_index, begin, end) over `chunks` contiguous ranges of
  /// [0, count) (clamped to [1, count]), matching the static particle
  /// partitioning the paper uses on the GAP9 cluster. Blocks until every
  /// chunk has finished; rethrows the first exception a chunk threw.
  void parallel_chunks(
      std::size_t count, std::size_t chunks,
      const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

  /// parallel_chunks with one chunk per index: fn(i) for every i in
  /// [0, count), each call its own task.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

 private:
  /// One parallel_chunks call; lives on its caller's stack.
  struct Call;
  struct Chunk {
    Call* call;
    std::size_t index;
  };

  void worker_loop();
  /// Runs `chunk` with `lock` released, then records its completion.
  /// `lock` holds mutex_ on entry and on return.
  void run(std::unique_lock<std::mutex>& lock, Chunk chunk);

  std::mutex mutex_;
  std::queue<Chunk> queue_;  ///< Chunks no thread has started yet.
  bool stop_ = false;
  /// Signals a queued chunk, a finished call, or shutdown.
  std::condition_variable cv_;
  std::vector<std::thread> workers_;  ///< Last: the threads use the above.
};

/// Split [0, count) into `chunks` nearly-equal contiguous ranges; chunk i
/// gets [chunk_begin(count, chunks, i), chunk_begin(count, chunks, i+1)).
/// The first (count % chunks) chunks are one element larger — the same
/// static schedule the paper's cluster implementation uses.
constexpr std::size_t chunk_begin(std::size_t count, std::size_t chunks,
                                  std::size_t i) {
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  return i * base + (i < extra ? i : extra);
}

}  // namespace tofmcl
