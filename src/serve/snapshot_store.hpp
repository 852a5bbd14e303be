#pragma once
/// \file snapshot_store.hpp
/// \brief Pluggable backing store for evicted-session snapshot blobs.
///
/// When the SessionManager evicts an idle session it serializes the full
/// session state (counters, latency samples, trace, FilterState) into a
/// versioned blob and parks it here until traffic returns. The store is
/// plain keyed bytes — it knows nothing about the blob format, which is
/// already versioned and bit-exact (serve::Session's 'SESS' wrapper
/// around the Localizer's 'TOFM' snapshot).
///
/// The seam exists so the blobs can outlive one manager instance:
/// several SessionManagers sharing one store can hand evicted sessions
/// to each other (rebalancing — manager A evicts into the store, manager
/// B takes the blob and restores it bit-identically), and a caller can
/// wrap the default store (perfbench times every put and take this way).
///
/// Implementations must be thread-safe: pushes restoring evicted
/// sessions call take() (and put() back a stash the Session rejects)
/// from any producer thread while evictions put() from the sweep thread.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

namespace tofmcl::serve {

class SnapshotStore {
 public:
  virtual ~SnapshotStore() = default;

  /// Parks `blob` under `id`, replacing any previous blob for the id.
  virtual void put(std::uint64_t id, std::vector<std::byte> blob) = 0;

  /// Removes and returns the blob parked under `id`, or nullopt when the
  /// id has no parked blob.
  virtual std::optional<std::vector<std::byte>> take(std::uint64_t id) = 0;

  /// Number of parked blobs.
  virtual std::size_t count() const = 0;

  /// Total parked payload bytes (the idle-footprint metric reports use).
  virtual std::size_t bytes() const = 0;
};

/// The default store: blobs held in a mutex-guarded map.
class InMemorySnapshotStore final : public SnapshotStore {
 public:
  void put(std::uint64_t id, std::vector<std::byte> blob) override;
  std::optional<std::vector<std::byte>> take(std::uint64_t id) override;
  std::size_t count() const override;
  std::size_t bytes() const override;

 private:
  mutable std::mutex mutex_;
  std::map<std::uint64_t, std::vector<std::byte>> blobs_;
  std::size_t bytes_ = 0;
};

}  // namespace tofmcl::serve
