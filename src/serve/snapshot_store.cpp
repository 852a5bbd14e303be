#include "serve/snapshot_store.hpp"

#include <charconv>
#include <fstream>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace tofmcl::serve {

// ---------------------------------------------------------------------------
// InMemorySnapshotStore
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// FileSnapshotStore
// ---------------------------------------------------------------------------

FileSnapshotStore::FileSnapshotStore(std::filesystem::path dir)
    : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw IoError("snapshot store: cannot create directory " + dir_.string());
  }
  // Adopt blobs a previous process (or manager) parked here: the index is
  // rebuilt from the files themselves, so a restart resumes where the
  // last run's evictions left off.
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".snap") {
      continue;
    }
    // Only path_of's own spelling is ours: "7.old.snap" and "007.snap"
    // would parse as 7 too, and adopting them would index a foreign file
    // under a live id.
    const std::string stem = entry.path().stem().string();
    std::uint64_t id = 0;
    const auto parsed =
        std::from_chars(stem.data(), stem.data() + stem.size(), id);
    if (parsed.ec != std::errc() || std::to_string(id) != stem) continue;
    const std::size_t size = static_cast<std::size_t>(entry.file_size());
    sizes_[id] = size;
    bytes_ += size;
  }
}

std::filesystem::path FileSnapshotStore::path_of(std::uint64_t id) const {
  return dir_ / (std::to_string(id) + ".snap");
}

void FileSnapshotStore::put(std::uint64_t id, std::vector<std::byte> blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::filesystem::path path = path_of(id);
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) throw IoError("snapshot store: cannot open " + path.string());
    os.write(reinterpret_cast<const char*>(blob.data()),
             static_cast<std::streamsize>(blob.size()));
    if (!os) throw IoError("snapshot store: short write to " + path.string());
  }
  auto& size = sizes_[id];
  bytes_ -= size;
  size = blob.size();
  bytes_ += size;
}

std::optional<std::vector<std::byte>> FileSnapshotStore::take(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = sizes_.find(id);
  if (it == sizes_.end()) return std::nullopt;
  const std::filesystem::path path = path_of(id);
  std::vector<std::byte> blob(it->second);
  {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw IoError("snapshot store: cannot open " + path.string());
    is.read(reinterpret_cast<char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
    if (static_cast<std::size_t>(is.gcount()) != blob.size()) {
      throw IoError("snapshot store: short read from " + path.string());
    }
  }
  bytes_ -= it->second;
  sizes_.erase(it);
  std::error_code ec;
  std::filesystem::remove(path, ec);  // Best effort; the index is gone.
  return blob;
}

std::size_t FileSnapshotStore::count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sizes_.size();
}

std::size_t FileSnapshotStore::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

}  // namespace tofmcl::serve
