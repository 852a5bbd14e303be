#pragma once
/// \file rules.hpp
/// \brief Rule registry for tofmcl_lint.
///
/// Each rule encodes one repo invariant as a named, individually
/// suppressible check over a file's token stream (see lexer.hpp). The
/// catalog — keep README.md "Static analysis" in sync:
///
///  determinism
///   * banned-random     — rand/srand/rand_r/drand48/std::random_device/
///                         random_shuffle anywhere: all stochastic code
///                         must draw from the seeded tofmcl::Rng
///                         (src/common/rng.hpp) or cross-process trace
///                         diffs stop being bit-identical.
///   * wall-clock        — system_clock/steady_clock/high_resolution_clock/
///                         gettimeofday/clock_gettime outside the
///                         whitelisted timing code (bench/, src/platform/):
///                         wall time feeding any simulation or filter
///                         decision breaks replay determinism.
///   * unordered-iteration — range-for over a std::unordered_map/set in
///                         src/core, src/eval, src/serve: iteration order
///                         is implementation-defined, and in these modules
///                         float accumulation order IS the output
///                         (serial/batched/pooled traces must stay
///                         bit-identical).
///   * trace-hexfloat    — any function named *_trace, or any function
///                         containing a TOFMCL_*_TRACE emitter hook, must
///                         format floats as hexfloats (std::hexfloat or a
///                         "%a" printf format): decimal round-trips are
///                         what made cross-process diffs flaky pre-PR 1.
///
///  concurrency
///   * serial-guard      — every public non-const (mutating) method of
///                         core::Localizer defined in localizer.cpp must
///                         construct a SerialGuard::Scope: the
///                         single-threaded-by-contract invariant (PR 6) is
///                         load-bearing for the serving layer.
///   * detached-thread   — .detach() on anything, repo-wide: a detached
///                         thread outlives the test/process teardown and
///                         races static destruction; use ThreadPool or
///                         join.
///   * empty-catch       — catch blocks with an empty body (comments do
///                         not count), repo-wide: swallowing exceptions
///                         silently is how the PR 2 ThreadPool bug hid.
///   * sleep-sync        — sleep_for/sleep_until/usleep/nanosleep in
///                         tests/: sleeping as a synchronization primitive
///                         is the canonical flaky test; use condition
///                         variables, futures or TaskGroup waits.
///
///  map invariants
///   * solid-interior    — <env>.world.add_rectangle(...) outside the
///                         worldgen.cpp / dynamic_obstacles.cpp whitelist
///                         must reference solid_regions in the same
///                         function: a large Occupied blob whose interior
///                         is not registered as a solid region becomes a
///                         zero-EDT particle sink (the loop-corridor
///                         lesson, ROADMAP standing invariant).
///
///  serving invariants
///   * context-immutable — any mention of ScoringContext outside its
///                         builder (src/core/scoring_context.{hpp,cpp})
///                         must be const-qualified: the context is shared
///                         one-per-map across sessions, so a non-const
///                         reference/pointer/shared_ptr element would let
///                         one session mutate scoring state under all the
///                         others. A gtest suite name, TEST(ScoringContext,
///                         ...), is not a mention of the type.
///
///  layering
///   * raw-intrinsics    — SIMD headers (<immintrin.h>, <arm_neon.h>, …)
///                         and raw x86 intrinsic usage (_mm* calls,
///                         __m256-style types) anywhere but
///                         src/core/kernels/: vector code is confined to
///                         the kernel layer behind the runtime-dispatched
///                         kernels::observation_sweep, so the scalar
///                         reference stays the single definition of the
///                         filter arithmetic (PR 9).

#include <string>
#include <vector>

#include "lexer.hpp"

namespace tofmcl::lint {

struct Violation {
  std::string rule;
  int line = 0;
  std::string message;
};

/// Everything a rule may look at. `path` is repo-relative with forward
/// slashes (e.g. "src/core/localizer.cpp") — rules scope themselves by
/// prefix. `sibling` is the lexed same-stem .hpp (member declarations,
/// class contracts) when one exists, else nullptr.
struct FileCtx {
  std::string path;
  const LexedFile* lexed = nullptr;
  const LexedFile* sibling = nullptr;
};

struct Rule {
  std::string name;
  std::string summary;
  std::vector<Violation> (*check)(const FileCtx&);
};

/// The registered rule catalog, in the order findings are reported.
const std::vector<Rule>& rule_catalog();

/// True if `name` names a registered rule (used to validate suppressions
/// and budget entries).
bool is_known_rule(const std::string& name);

/// Runs every rule over one file. Suppressions are NOT applied here —
/// the driver (tofmcl_lint.cpp) owns the TOFMCL_LINT_ALLOW machinery.
std::vector<Violation> run_rules(const FileCtx& ctx);

}  // namespace tofmcl::lint
