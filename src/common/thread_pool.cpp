#include "common/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace tofmcl {

struct ThreadPool::Call {
  const std::function<void(std::size_t, std::size_t, std::size_t)>& fn;
  std::size_t count;
  std::size_t chunks;
  std::size_t unfinished;     ///< Guarded by mutex_.
  std::exception_ptr error;   ///< First chunk failure; guarded by mutex_.
  bool caller_waits = false;  ///< Caller slept on cv_; guarded by mutex_.
};

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    // Every call waits for its own chunks, so a stopping pool has an
    // empty queue.
    if (queue_.empty()) return;
    const Chunk chunk = queue_.front();
    queue_.pop();
    run(lock, chunk);
  }
}

void ThreadPool::run(std::unique_lock<std::mutex>& lock, Chunk chunk) {
  Call& call = *chunk.call;
  lock.unlock();
  std::exception_ptr error;
  try {
    call.fn(chunk.index, chunk_begin(call.count, call.chunks, chunk.index),
            chunk_begin(call.count, call.chunks, chunk.index + 1));
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error && !call.error) call.error = error;
  // Once the count reaches zero and the lock is released, the caller may
  // return and `call` is gone. A caller that never slept needs no wake-up,
  // and skipping it spares the idle workers that share cv_.
  if (--call.unfinished == 0 && call.caller_waits) cv_.notify_all();
}

void ThreadPool::parallel_chunks(
    std::size_t count, std::size_t chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, count);
  Call call{fn, count, chunks, chunks, nullptr};

  std::unique_lock lock(mutex_);
  for (std::size_t c = 1; c < chunks; ++c) queue_.push({&call, c});
  if (chunks > workers_.size()) {
    cv_.notify_all();
  } else {
    for (std::size_t c = 1; c < chunks; ++c) cv_.notify_one();
  }

  // The caller runs chunk 0, then any queued chunk, until its own call
  // has finished.
  run(lock, {&call, 0});
  while (call.unfinished != 0) {
    if (queue_.empty()) {
      call.caller_waits = true;
      cv_.wait(lock, [&call, this] {
        return call.unfinished == 0 || !queue_.empty();
      });
      continue;
    }
    const Chunk next = queue_.front();
    queue_.pop();
    run(lock, next);
  }
  lock.unlock();
  if (call.error) std::rethrow_exception(call.error);
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  parallel_chunks(count, count,
                  [&fn](std::size_t i, std::size_t, std::size_t) { fn(i); });
}

}  // namespace tofmcl
