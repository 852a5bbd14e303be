#include "serve/map_catalog.hpp"

#include <utility>

namespace tofmcl::serve {

MapCatalog::Context MapCatalog::get_or_build_context(
    const std::string& key, const ContextBuilder& build) {
  std::promise<Context> promise;
  std::shared_future<Context> future;
  bool winner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = contexts_.find(key);
    if (it != contexts_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      contexts_.emplace(key, future);
      winner = true;
    }
  }
  if (!winner) return future.get();

  // Build outside the lock so different keys construct concurrently.
  try {
    promise.set_value(build());
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Forget the failed attempt so the next request retries. The entry
      // is still ours: only the winner of its insert ever erases it.
      contexts_.erase(key);
    }
    future.get();  // Rethrows for this caller too.
  }
  return future.get();
}

std::size_t MapCatalog::context_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return contexts_.size();
}

}  // namespace tofmcl::serve
