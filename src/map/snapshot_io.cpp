#include "map/snapshot_io.hpp"

#include <string>

namespace tofmcl::map {

void SnapshotReader::throw_truncated(std::size_t n) const {
  throw IoError("snapshot truncated: need " + std::to_string(n) +
                " bytes at offset " + std::to_string(pos_) + " of " +
                std::to_string(bytes_.size()));
}

}  // namespace tofmcl::map
