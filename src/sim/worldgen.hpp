#pragma once
/// \file worldgen.hpp
/// \brief Seeded procedural generation of evaluation worlds.
///
/// The source paper evaluates in one structured maze arena (Section IV-A);
/// follow-up floor-plan localization (Zimmerman et al., arXiv:2310.12536)
/// and depth-based avoidance (Müller et al., arXiv:2208.12624) move to
/// realistic buildings and dynamic scenes. This module opens that axis: a
/// deterministic generator family turning a (kind, seed) pair into a full
/// EvaluationEnvironment plus flyable tour plans, so campaigns sweep an
/// unbounded set of worlds instead of the two fixed mazes.
///
/// Kinds:
///   * Office       — central corridor with rooms off both sides, one
///                    doorway per room, wall-mounted feature pillars.
///   * Warehouse    — open hall with solid shelving/pallet clutter
///                    separated by guaranteed-width aisles.
///   * LoopCorridor — ring corridor around a solid core, symmetry broken
///                    by randomly placed pillars.
///
/// Every generated world is validated structurally at build time: all
/// points of interest must be mutually reachable via plan::plan_path on
/// the rasterized grid, which is also how the tour flight plans are
/// produced (A* + line-of-sight simplification → waypoints).

#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl::sim {

/// Which procedural family a world comes from.
enum class GeneratedWorldKind : std::uint8_t {
  kOffice,
  kWarehouse,
  kLoopCorridor,
};
const char* to_string(GeneratedWorldKind kind);

/// The generator knobs a caller sets. The building's dimensions (a
/// 9 m × 6 m exterior, doorways, corridors, rooms, clutter) are constants
/// in worldgen.cpp.
struct WorldGenConfig {
  std::uint64_t seed = 1;
  /// Patrol length of the primary tour plan (plan 0): laps > 1 turns it
  /// into an out-and-back patrol that retraces the tour route — forward,
  /// back, forward, … — so missions can outlast the single-tour duration
  /// (pair with a raised sequence timeout; the generator's historical cap
  /// is 180 s). 1 reproduces the classic single tour bit for bit; the
  /// reverse and shuttle plans are never affected.
  std::size_t tour_laps = 1;
};

/// A generated world: the environment, its landmark points (room centers,
/// aisle nodes, ring corners — all guaranteed traversable) and ≥ 3 tour
/// flight plans planned through it (0: forward tour, 1: reverse tour,
/// 2: shuttle between the two farthest points).
struct GeneratedWorld {
  GeneratedWorldKind kind = GeneratedWorldKind::kOffice;
  WorldGenConfig config;
  EvaluationEnvironment env;
  std::vector<Vec2> points_of_interest;
  std::vector<FlightPlan> plans;
};

/// Generates a world. Deterministic: equal (kind, config) produce
/// bit-identical worlds, whatever process or thread runs the generator.
/// Throws PreconditionError for zero tour laps or a draw that leaves a
/// landmark unreachable — never returns a world whose points of interest
/// are not mutually reachable.
GeneratedWorld generate_world(GeneratedWorldKind kind,
                              const WorldGenConfig& config = {});

// ---- Stale-map mutation operators ----------------------------------------
//
// Lifelong localization flies against maps that have gone stale: furniture
// moved, doors closed, clutter accumulated since the floor plan was
// recorded (the regime the floor-plan follow-up, Zimmerman et al.,
// arXiv:2310.12536, targets). mutate_world() turns any evaluation
// environment into a seeded "what the building looks like TODAY" variant;
// campaigns fly and sense the mutated world while the localizer keeps the
// pristine map.

/// How aggressively mutate_world rearranges a world: kLight is "someone
/// tidied up over the weekend", kHeavy is "the floor got rearranged since
/// the map was recorded" (operator counts are constants in worldgen.cpp).
/// kNone applies no operator and returns the input environment
/// bit-identically.
enum class MutationLevel : std::uint8_t { kNone, kLight, kHeavy };
const char* to_string(MutationLevel level);

/// What a mutate_world call actually applied (operators are rejection
/// sampled, so intensities are ceilings, not guarantees).
struct MutationSummary {
  std::size_t clutter_added = 0;
  std::size_t boxes_moved = 0;
  std::size_t boxes_removed = 0;
  std::size_t doors_closed = 0;    ///< Gaps fully walled off (off-route).
  std::size_t doors_narrowed = 0;  ///< On-route gaps shrunk, still flyable.
};

/// Returns a mutated copy of `env`: shelving moved or removed, doorways
/// closed or narrowed, static clutter scattered — each operator seeded
/// from `seed` and deterministic across processes. Invariants, enforced
/// per operator and re-validated by A* over every plan's waypoint chain:
///   * solid-box interiors stay Unknown (added clutter joins
///     `solid_regions`; removed boxes leave cleanly — outline segments and
///     region entry go together);
///   * every route in `plans` remains flyable (mutations keep a 0.4 m
///     clearance from the polylines; door narrowing keeps the gap above
///     the drone's corridor minimum).
/// Throws PreconditionError when `env` has no structured region to mutate
/// in, or if a mutated world fails the A* re-validation (cannot happen for
/// clearances ≥ the planner's traversability floor).
EvaluationEnvironment mutate_world(const EvaluationEnvironment& env,
                                   const std::vector<FlightPlan>& plans,
                                   MutationLevel level, std::uint64_t seed,
                                   MutationSummary* summary = nullptr);

}  // namespace tofmcl::sim
