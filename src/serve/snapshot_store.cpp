#include "serve/snapshot_store.hpp"

#include <utility>

namespace tofmcl::serve {

void InMemorySnapshotStore::put(std::uint64_t id, std::vector<std::byte> blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = blobs_[id];
  bytes_ -= slot.size();
  slot = std::move(blob);
  bytes_ += slot.size();
}

std::optional<std::vector<std::byte>> InMemorySnapshotStore::take(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = blobs_.find(id);
  if (it == blobs_.end()) return std::nullopt;
  std::vector<std::byte> blob = std::move(it->second);
  bytes_ -= blob.size();
  blobs_.erase(it);
  return blob;
}

std::size_t InMemorySnapshotStore::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return blobs_.size();
}

std::size_t InMemorySnapshotStore::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace tofmcl::serve
