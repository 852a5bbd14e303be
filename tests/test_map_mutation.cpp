// Tests for the stale-map mutation operators (sim::mutate_world):
// determinism (same (env, level, seed) → byte-identical mutated world,
// pinned to a committed digest of the hexfloat mutation_trace() dump),
// the solid-interior invariant (mutated boxes stay Unknown inside, like
// every generated solid region), tour flyability through the mutated
// world, and the level-kNone bit-identity guarantee the campaign's
// staleness axis builds on.

#include "sim/worldgen.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "golden_digest.hpp"
#include "map/distance_map.hpp"
#include "map/map_io.hpp"
#include "plan/astar.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl::sim {
namespace {

const GeneratedWorldKind kKinds[] = {GeneratedWorldKind::kOffice,
                                     GeneratedWorldKind::kWarehouse,
                                     GeneratedWorldKind::kLoopCorridor};
const MutationLevel kLevels[] = {MutationLevel::kLight,
                                 MutationLevel::kHeavy};

GeneratedWorld base_world(GeneratedWorldKind kind, std::uint64_t seed) {
  WorldGenConfig config;
  config.seed = seed;
  return generate_world(kind, config);
}

void expect_identical_envs(const EvaluationEnvironment& a,
                           const EvaluationEnvironment& b) {
  ASSERT_EQ(a.world.segments().size(), b.world.segments().size());
  for (std::size_t i = 0; i < a.world.segments().size(); ++i) {
    EXPECT_EQ(a.world.segments()[i].a, b.world.segments()[i].a);
    EXPECT_EQ(a.world.segments()[i].b, b.world.segments()[i].b);
  }
  ASSERT_EQ(a.solid_regions.size(), b.solid_regions.size());
  for (std::size_t i = 0; i < a.solid_regions.size(); ++i) {
    EXPECT_EQ(a.solid_regions[i].min, b.solid_regions[i].min);
    EXPECT_EQ(a.solid_regions[i].max, b.solid_regions[i].max);
  }
  ASSERT_EQ(a.maze_regions.size(), b.maze_regions.size());
  EXPECT_EQ(a.structured_area_m2, b.structured_area_m2);
}

std::size_t total_ops(const MutationSummary& s) {
  return s.clutter_added + s.boxes_moved + s.boxes_removed + s.doors_closed +
         s.doors_narrowed;
}

TEST(MapMutation, DeterministicAcrossCalls) {
  for (const GeneratedWorldKind kind : kKinds) {
    const GeneratedWorld world = base_world(kind, 5);
    for (const MutationLevel level : kLevels) {
      MutationSummary sa;
      MutationSummary sb;
      const EvaluationEnvironment a =
          mutate_world(world.env, world.plans, level, 42, &sa);
      const EvaluationEnvironment b =
          mutate_world(world.env, world.plans, level, 42, &sb);
      expect_identical_envs(a, b);
      EXPECT_EQ(sa.clutter_added, sb.clutter_added);
      EXPECT_EQ(sa.boxes_moved, sb.boxes_moved);
      EXPECT_EQ(sa.boxes_removed, sb.boxes_removed);
      EXPECT_EQ(sa.doors_closed, sb.doors_closed);
      EXPECT_EQ(sa.doors_narrowed, sb.doors_narrowed);
    }
  }
}

TEST(MapMutation, DifferentSeedsDiffer) {
  const GeneratedWorld world =
      base_world(GeneratedWorldKind::kWarehouse, 2);
  const EvaluationEnvironment a =
      mutate_world(world.env, world.plans, MutationLevel::kHeavy, 1);
  const EvaluationEnvironment b =
      mutate_world(world.env, world.plans, MutationLevel::kHeavy, 2);
  const map::OccupancyGrid ga = rasterize_environment(a, 0.05, 0.0, 0);
  const map::OccupancyGrid gb = rasterize_environment(b, 0.05, 0.0, 0);
  EXPECT_NE(map::to_ascii(ga), map::to_ascii(gb));
}

// The campaign's mutation_level=0 bitwise guarantee rests on this:
// kNone applies nothing, draws nothing, and returns the input exactly.
TEST(MapMutation, LevelNoneIsBitIdenticalToTheInput) {
  for (const GeneratedWorldKind kind : kKinds) {
    const GeneratedWorld world = base_world(kind, 7);
    MutationSummary summary;
    const EvaluationEnvironment same = mutate_world(
        world.env, world.plans, MutationLevel::kNone, 42, &summary);
    expect_identical_envs(world.env, same);
    EXPECT_EQ(total_ops(summary), 0u);
    const map::OccupancyGrid ga =
        rasterize_environment(world.env, 0.05, 0.01);
    const map::OccupancyGrid gb = rasterize_environment(same, 0.05, 0.01);
    EXPECT_EQ(ga, gb) << to_string(kind);
  }
}

TEST(MapMutation, MutationsActuallyChangeTheWorld) {
  for (const GeneratedWorldKind kind : kKinds) {
    const GeneratedWorld world = base_world(kind, 2);
    MutationSummary summary;
    const EvaluationEnvironment mutated = mutate_world(
        world.env, world.plans, MutationLevel::kHeavy, 9, &summary);
    EXPECT_GE(total_ops(summary), 3u) << to_string(kind);
    const map::OccupancyGrid pristine =
        rasterize_environment(world.env, 0.05, 0.0, 0);
    const map::OccupancyGrid stale = rasterize_environment(mutated, 0.05,
                                                           0.0, 0);
    EXPECT_NE(map::to_ascii(pristine), map::to_ascii(stale))
        << to_string(kind);
  }
}

// The loop-corridor lesson holds through mutations: every solid box —
// surviving, moved, or freshly scattered — rasterizes to an Occupied
// outline around an Unknown interior, never an all-zero-EDT blob.
TEST(MapMutation, SolidInteriorsStayUnknown) {
  for (const GeneratedWorldKind kind : kKinds) {
    const GeneratedWorld world = base_world(kind, 3);
    MutationSummary summary;
    const EvaluationEnvironment mutated = mutate_world(
        world.env, world.plans, MutationLevel::kHeavy, 11, &summary);
    EXPECT_GE(total_ops(summary), 1u) << to_string(kind);
    if (kind != GeneratedWorldKind::kLoopCorridor) {
      // Open halls take scattered clutter; the 1.2 m loop ring correctly
      // refuses boxes that would block the only flyable corridor.
      EXPECT_GT(mutated.solid_regions.size(),
                world.env.solid_regions.size())
          << to_string(kind) << " (heavy mutation should scatter clutter)";
    }
    const map::OccupancyGrid grid =
        rasterize_environment(mutated, 0.05, 0.0, 0);
    for (const Aabb& box : mutated.solid_regions) {
      const Vec2 center = (box.min + box.max) / 2.0;
      ASSERT_TRUE(grid.in_bounds(center)) << to_string(kind);
      EXPECT_EQ(grid.at(grid.world_to_cell(center)),
                map::CellState::kUnknown)
          << to_string(kind) << " box interior at " << center;
      const Vec2 edge_mid{(box.min.x + box.max.x) / 2.0, box.min.y};
      ASSERT_TRUE(grid.in_bounds(edge_mid)) << to_string(kind);
      EXPECT_EQ(grid.at(grid.world_to_cell(edge_mid)),
                map::CellState::kOccupied)
          << to_string(kind) << " box outline at " << edge_mid;
    }
  }
}

// Tour reachability, the invariant mutate_world re-validates internally:
// every waypoint chain stays A*-traversable in the mutated world, and the
// primary tour actually FLIES through it collision-free (the property the
// campaign's stale datasets depend on).
TEST(MapMutation, ToursStayFlyableThroughMutatedWorlds) {
  for (const GeneratedWorldKind kind : kKinds) {
    for (const std::uint64_t mutation_seed : {1ull, 2ull, 3ull}) {
      const GeneratedWorld world = base_world(kind, 2);
      const EvaluationEnvironment mutated = mutate_world(
          world.env, world.plans, MutationLevel::kHeavy, mutation_seed);
      const map::OccupancyGrid grid =
          rasterize_environment(mutated, 0.05, 0.0, 0);
      const map::DistanceMap distance(grid, 1.0);
      plan::PlannerConfig pc;
      pc.min_clearance_m = 0.08;
      for (const FlightPlan& plan : world.plans) {
        Vec2 prev = plan.start.position;
        for (const Waypoint& wp : plan.path) {
          EXPECT_TRUE(
              plan::plan_path(grid, distance, prev, wp.position, pc)
                  .has_value())
              << to_string(kind) << " mseed " << mutation_seed << " plan "
              << plan.name;
          prev = wp.position;
        }
      }
      if (mutation_seed == 2) {
        Rng rng(5);
        const Sequence seq = generate_sequence(
            mutated.world, world.plans[0], default_generator_config(), rng);
        EXPECT_GT(seq.duration_s, 10.0) << to_string(kind);
        EXPECT_GT(seq.min_clearance_m, 0.03) << to_string(kind);
        EXPECT_GT(seq.frames.size(), 200u) << to_string(kind);
      }
    }
  }
}

// Staleness composes with the maze worlds too: the operators are generic
// over any EvaluationEnvironment + plan table, not a worldgen privilege.
// The flights all happen in the drone maze whose ≤ 0.8 m corridors leave
// no room for clutter, so mutations land in the artificial mazes (stale
// regions the filter may still hypothesize into) — and the recorded
// flight stays collision-free regardless.
TEST(MapMutation, ComposesWithTheMazeWorlds) {
  const EvaluationEnvironment env = evaluation_environment(2023);
  const std::vector<FlightPlan> plans = standard_flight_plans();
  MutationSummary summary;
  const EvaluationEnvironment mutated =
      mutate_world(env, plans, MutationLevel::kHeavy, 4, &summary);
  EXPECT_GE(total_ops(summary), 1u);
  Rng rng(6);
  const Sequence seq = generate_sequence(mutated.world, plans[0],
                                         default_generator_config(), rng);
  EXPECT_GT(seq.duration_s, 10.0);
  EXPECT_GT(seq.min_clearance_m, 0.03);
}

TEST(MapMutation, RejectsUnsafeConfigs) {
  const GeneratedWorld world = base_world(GeneratedWorldKind::kOffice, 1);
  EvaluationEnvironment bare;  // no structured region to mutate in
  bare.world = world.env.world;
  EXPECT_THROW(mutate_world(bare, world.plans, MutationLevel::kLight, 1),
               PreconditionError);
}

/// Hexfloat dump of every mutated world (each kind at seed 12, each level,
/// mutation seed 77): the summary counts, segments, solid regions and the
/// rasterized grid. The golden digest below is taken over exactly these
/// bytes.
std::string mutation_trace() {
  std::ostringstream out;
  out << std::hexfloat;
  for (const GeneratedWorldKind kind : kKinds) {
    const GeneratedWorld world = base_world(kind, 12);
    for (const MutationLevel level : kLevels) {
      MutationSummary summary;
      const EvaluationEnvironment mutated =
          mutate_world(world.env, world.plans, level, 77, &summary);
      out << to_string(kind) << ' ' << to_string(level) << ' '
          << summary.clutter_added << ' ' << summary.boxes_moved << ' '
          << summary.boxes_removed << ' ' << summary.doors_closed << ' '
          << summary.doors_narrowed << '\n';
      for (const map::Segment& s : mutated.world.segments()) {
        out << s.a.x << ' ' << s.a.y << ' ' << s.b.x << ' ' << s.b.y << '\n';
      }
      for (const Aabb& box : mutated.solid_regions) {
        out << box.min.x << ' ' << box.min.y << ' ' << box.max.x << ' '
            << box.max.y << '\n';
      }
      map::save_grid(rasterize_environment(mutated, 0.05, 0.01), out,
                     map::GridFormat::kV2);
    }
  }
  return out.str();
}

// Golden digest (see golden_digest.hpp). No kernel code runs here, so it
// runs once, in the main ctest entry.
TEST(MapMutationDeterminism, TraceMatchesCommittedDigest) {
  golden::expect_digest("map mutation trace", 0x847d6b02f79d5f6cull,
                        mutation_trace);
}

}  // namespace
}  // namespace tofmcl::sim
