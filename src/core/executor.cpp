#include "core/executor.hpp"

#include <algorithm>

namespace tofmcl::core {

void SerialExecutor::for_chunks(std::size_t count, std::size_t chunks,
                                const ChunkFn& fn) {
  if (count == 0) return;
  chunks = std::clamp<std::size_t>(chunks, 1, count);
  for (std::size_t c = 0; c < chunks; ++c) {
    fn(c, chunk_begin(count, chunks, c), chunk_begin(count, chunks, c + 1));
  }
}

void ThreadPoolExecutor::for_chunks(std::size_t count, std::size_t chunks,
                                    const ChunkFn& fn) {
  pool_.parallel_chunks(count, chunks, fn);
}

}  // namespace tofmcl::core
