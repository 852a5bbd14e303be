#pragma once
/// \file map_catalog.hpp
/// \brief Keyed once-map of shared scoring contexts.
///
/// A core::ScoringContext is built once per (map key, scoring
/// fingerprint) and pointer-shared by every session whose config differs
/// only in SessionKnobs: one arena, one resolved config, on top of the
/// map's shared core::MapResources. When two sessions open with the same
/// key concurrently, exactly one build must run and both must receive the
/// SAME immutable object. The naive check-then-build under a mutex either
/// serializes unrelated builds behind one global lock or, when the lock
/// is dropped around the build, races into duplicate construction.
///
/// MapCatalog resolves this with a keyed once-map: the map holds a
/// shared_future per key, the winner of the insert runs the builder
/// OUTSIDE the lock (concurrent builds of DIFFERENT keys proceed in
/// parallel), and everyone else blocks on the future. A failed build
/// erases its entry so a later request can retry instead of caching the
/// exception forever; callers already waiting on the failed future get
/// the exception rethrown.
///
/// (Evicted-session snapshot blobs used to be stashed here too; they now
/// live behind the pluggable serve::SnapshotStore seam so blobs can be
/// shared between manager instances and persisted to disk.)

#include <cstddef>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/localizer.hpp"

namespace tofmcl::serve {

class MapCatalog {
 public:
  using Context = std::shared_ptr<const core::ScoringContext>;
  using ContextBuilder = std::function<Context()>;

  /// Returns the context for `key`, invoking `build` exactly once per key
  /// across all concurrent callers (the winner builds, the rest wait on
  /// its future). Rethrows the builder's exception to every caller of the
  /// failed attempt, then forgets the entry so the next request retries.
  /// Key by map key + core::scoring_fingerprint(config) so sessions
  /// differing only in SessionKnobs land on one context.
  Context get_or_build_context(const std::string& key,
                               const ContextBuilder& build);

  /// Number of successfully built (or in-flight) context entries.
  std::size_t context_count() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::shared_future<Context>> contexts_;
};

}  // namespace tofmcl::serve
