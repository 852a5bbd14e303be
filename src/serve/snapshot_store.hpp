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
/// B takes the blob and restores it bit-identically), and the
/// file-backed implementation persists blobs across process restarts,
/// the substrate for cross-process rebalancing.
///
/// Implementations must be thread-safe: pushes restoring evicted
/// sessions call take() from any producer thread while evictions put()
/// from the sweep thread.

#include <cstddef>
#include <cstdint>
#include <filesystem>
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

/// The default store: blobs held in a mutex-guarded map. Exactly the
/// semantics the MapCatalog's built-in stash used to provide.
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

/// One file per parked blob ("<id>.snap" under `dir`), so parked
/// sessions survive the process and a second process (or a later run)
/// can pick them up: the constructor scans the directory and adopts
/// every existing blob file into its index. Blob contents are written
/// and read back byte-for-byte — a file round-trip is bitwise equal to
/// the in-memory store's (tests/test_serve.cpp gates on this).
class FileSnapshotStore final : public SnapshotStore {
 public:
  /// Creates `dir` when missing and indexes the "<id>.snap" files already
  /// present, where <id> is spelled as std::to_string writes it; any other
  /// file is left alone. Throws common::IoError when the directory cannot
  /// be created.
  explicit FileSnapshotStore(std::filesystem::path dir);

  void put(std::uint64_t id, std::vector<std::byte> blob) override;
  std::optional<std::vector<std::byte>> take(std::uint64_t id) override;
  std::size_t count() const override;
  std::size_t bytes() const override;

  const std::filesystem::path& directory() const { return dir_; }

 private:
  std::filesystem::path path_of(std::uint64_t id) const;

  std::filesystem::path dir_;
  mutable std::mutex mutex_;
  /// id -> payload size; the index spares take()/bytes() a disk stat.
  std::map<std::uint64_t, std::size_t> sizes_;
  std::size_t bytes_ = 0;
};

}  // namespace tofmcl::serve
