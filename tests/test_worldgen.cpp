// Tests for the procedural world generators: determinism (same seed →
// byte-identical world, pinned to a committed digest of the hexfloat
// worldgen_trace() dump) and structural invariants (landmarks mutually
// reachable with drone-sized clearance, flyable tour plans).

#include "sim/worldgen.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "golden_digest.hpp"
#include "map/distance_map.hpp"
#include "map/map_io.hpp"
#include "plan/astar.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl::sim {
namespace {

const GeneratedWorldKind kKinds[] = {GeneratedWorldKind::kOffice,
                                     GeneratedWorldKind::kWarehouse,
                                     GeneratedWorldKind::kLoopCorridor};

void expect_identical_worlds(const GeneratedWorld& a,
                             const GeneratedWorld& b) {
  ASSERT_EQ(a.env.world.segments().size(), b.env.world.segments().size());
  for (std::size_t i = 0; i < a.env.world.segments().size(); ++i) {
    EXPECT_EQ(a.env.world.segments()[i].a, b.env.world.segments()[i].a);
    EXPECT_EQ(a.env.world.segments()[i].b, b.env.world.segments()[i].b);
  }
  ASSERT_EQ(a.points_of_interest.size(), b.points_of_interest.size());
  for (std::size_t i = 0; i < a.points_of_interest.size(); ++i) {
    EXPECT_EQ(a.points_of_interest[i], b.points_of_interest[i]);
  }
  ASSERT_EQ(a.plans.size(), b.plans.size());
  for (std::size_t i = 0; i < a.plans.size(); ++i) {
    EXPECT_EQ(a.plans[i].name, b.plans[i].name);
    EXPECT_EQ(a.plans[i].start, b.plans[i].start);
    ASSERT_EQ(a.plans[i].path.size(), b.plans[i].path.size());
    for (std::size_t j = 0; j < a.plans[i].path.size(); ++j) {
      EXPECT_EQ(a.plans[i].path[j].position, b.plans[i].path[j].position);
    }
  }
}

TEST(WorldGen, SameSeedIsBitIdentical) {
  for (const GeneratedWorldKind kind : kKinds) {
    WorldGenConfig config;
    config.seed = 11;
    const GeneratedWorld a = generate_world(kind, config);
    const GeneratedWorld b = generate_world(kind, config);
    expect_identical_worlds(a, b);
    // The rasterized grid (the artifact campaigns localize against) is
    // byte-identical too.
    const map::OccupancyGrid ga = rasterize_environment(a.env, 0.05, 0.01);
    const map::OccupancyGrid gb = rasterize_environment(b.env, 0.05, 0.01);
    EXPECT_EQ(ga, gb);
  }
}

TEST(WorldGen, DifferentSeedsDiffer) {
  for (const GeneratedWorldKind kind : kKinds) {
    WorldGenConfig a_cfg;
    a_cfg.seed = 1;
    WorldGenConfig b_cfg;
    b_cfg.seed = 2;
    const GeneratedWorld a = generate_world(kind, a_cfg);
    const GeneratedWorld b = generate_world(kind, b_cfg);
    const map::OccupancyGrid ga = rasterize_environment(a.env, 0.05, 0.0, 0);
    const map::OccupancyGrid gb = rasterize_environment(b.env, 0.05, 0.0, 0);
    EXPECT_NE(map::to_ascii(ga), map::to_ascii(gb)) << to_string(kind);
  }
}

TEST(WorldGen, KindsAreDecorrelated) {
  WorldGenConfig config;
  config.seed = 9;
  const GeneratedWorld office =
      generate_world(GeneratedWorldKind::kOffice, config);
  const GeneratedWorld warehouse =
      generate_world(GeneratedWorldKind::kWarehouse, config);
  EXPECT_NE(office.env.world.segments().size(),
            warehouse.env.world.segments().size());
}

// Every landmark must be reachable from every other with clearance well
// above the drone radius — this is what "doorways pass the drone" means
// operationally: a doorway narrower than 2×min_clearance would break the
// route through it.
TEST(WorldGen, LandmarksMutuallyReachableWithDroneClearance) {
  for (const GeneratedWorldKind kind : kKinds) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      WorldGenConfig config;
      config.seed = seed;
      const GeneratedWorld world = generate_world(kind, config);
      ASSERT_GE(world.points_of_interest.size(), 3u) << to_string(kind);
      const map::OccupancyGrid grid =
          rasterize_environment(world.env, 0.05, 0.0, 0);
      const map::DistanceMap distance(grid, 1.0);
      plan::PlannerConfig pc;
      pc.min_clearance_m = 0.2;  // ≥ drone diameter (0.1 m) each side
      const Vec2 hub = world.points_of_interest.front();
      for (std::size_t i = 1; i < world.points_of_interest.size(); ++i) {
        EXPECT_TRUE(plan::plan_path(grid, distance, hub,
                                    world.points_of_interest[i], pc)
                        .has_value())
            << to_string(kind) << " seed " << seed << " landmark " << i;
      }
    }
  }
}

TEST(WorldGen, TourPlansAreFlyable) {
  for (const GeneratedWorldKind kind : kKinds) {
    WorldGenConfig config;
    config.seed = 4;
    const GeneratedWorld world = generate_world(kind, config);
    ASSERT_GE(world.plans.size(), 3u);
    const map::OccupancyGrid grid =
        rasterize_environment(world.env, 0.05, 0.0, 0);
    const map::DistanceMap distance(grid, 1.0);
    for (const FlightPlan& plan : world.plans) {
      ASSERT_GE(plan.path.size(), 2u) << plan.name;
      EXPECT_GE(distance.distance_at(plan.start.position), 0.15f)
          << plan.name;
      for (const Waypoint& wp : plan.path) {
        EXPECT_GE(distance.distance_at(wp.position), 0.15f) << plan.name;
      }
    }
    // The first tour actually flies collision-free within the generator's
    // timeout.
    Rng rng(5);
    const Sequence seq = generate_sequence(
        world.env.world, world.plans[0], default_generator_config(), rng);
    EXPECT_GT(seq.duration_s, 10.0) << to_string(kind);
    EXPECT_LT(seq.duration_s, 175.0) << to_string(kind);
    EXPECT_GT(seq.min_clearance_m, 0.03) << to_string(kind);
    EXPECT_GT(seq.frames.size(), 200u) << to_string(kind);
  }
}

// Generated worlds are exactly what the v2 grid format exists for: large,
// run-heavy maps. Round-trip must be bit-exact, and the v2 file
// meaningfully smaller than v1.
TEST(WorldGen, GeneratedWorldsRoundTripThroughMapIoV2) {
  for (const GeneratedWorldKind kind : kKinds) {
    WorldGenConfig config;
    config.seed = 6;
    const GeneratedWorld world = generate_world(kind, config);
    const map::OccupancyGrid grid =
        rasterize_environment(world.env, 0.05, 0.01);
    std::stringstream v2;
    map::save_grid(grid, v2, map::GridFormat::kV2);
    std::stringstream v1;
    map::save_grid(grid, v1, map::GridFormat::kV1);
    EXPECT_LT(v2.str().size(), v1.str().size() / 4) << to_string(kind);
    const map::OccupancyGrid loaded = map::load_grid(v2);
    EXPECT_EQ(loaded, grid) << to_string(kind);
  }
}

// The 180 s cap regression: worldgen tours used to be limited to whatever
// fit the sequence generator's default abort limit. With tour_laps > 1
// the primary plan becomes an out-and-back patrol, and together with a
// raised timeout a > 180 s mission generates completely — and
// deterministically, including through the dataset save/load round trip.
TEST(WorldGen, PatrolTourOutlivesThe180sCap) {
  WorldGenConfig config;
  config.seed = 3;
  config.tour_laps = 2;
  const GeneratedWorld world =
      generate_world(GeneratedWorldKind::kOffice, config);
  EXPECT_NE(world.plans[0].name.find("_patrol_x2"), std::string::npos);

  // Single-lap plans are untouched by the knob: same world, laps = 1.
  WorldGenConfig single = config;
  single.tour_laps = 1;
  const GeneratedWorld base =
      generate_world(GeneratedWorldKind::kOffice, single);
  EXPECT_GT(world.plans[0].path.size(), base.plans[0].path.size());
  ASSERT_EQ(world.plans.size(), base.plans.size());
  EXPECT_EQ(world.plans[1].name, base.plans[1].name);
  ASSERT_EQ(world.plans[2].path.size(), base.plans[2].path.size());

  SequenceGeneratorConfig gen = default_generator_config();
  gen.timeout_s = 600.0;
  Rng rng(42);
  const Sequence seq =
      generate_sequence(world.env.world, world.plans[0], gen, rng);
  EXPECT_GT(seq.duration_s, 180.0);
  ASSERT_FALSE(seq.odometry.empty());

  // Determinism: regeneration is bit-identical…
  Rng rng2(42);
  const Sequence again =
      generate_sequence(world.env.world, world.plans[0], gen, rng2);
  EXPECT_EQ(seq.duration_s, again.duration_s);
  ASSERT_EQ(seq.odometry.size(), again.odometry.size());
  ASSERT_EQ(seq.frames.size(), again.frames.size());
  EXPECT_EQ(seq.odometry.back().pose, again.odometry.back().pose);

  // …and the > 180 s dataset round-trips through sequence IO exactly
  // (17-significant-digit text format).
  std::stringstream io;
  save_sequence(seq, io);
  const Sequence loaded = load_sequence(io);
  EXPECT_EQ(loaded.duration_s, seq.duration_s);
  ASSERT_EQ(loaded.odometry.size(), seq.odometry.size());
  ASSERT_EQ(loaded.ground_truth.size(), seq.ground_truth.size());
  ASSERT_EQ(loaded.frames.size(), seq.frames.size());
  EXPECT_EQ(loaded.odometry.back().t, seq.odometry.back().t);
  EXPECT_EQ(loaded.odometry.back().pose, seq.odometry.back().pose);
  EXPECT_EQ(loaded.ground_truth.back().pose, seq.ground_truth.back().pose);
}

/// Hexfloat dump of every generated coordinate (segments, then each plan's
/// start and path) and the rasterized grid of each kind at seed 12. The
/// golden digest below is taken over exactly these bytes.
std::string worldgen_trace() {
  std::ostringstream out;
  out << std::hexfloat;
  for (const GeneratedWorldKind kind : kKinds) {
    WorldGenConfig config;
    config.seed = 12;
    const GeneratedWorld world = generate_world(kind, config);
    out << to_string(kind) << '\n';
    for (const map::Segment& s : world.env.world.segments()) {
      out << s.a.x << ' ' << s.a.y << ' ' << s.b.x << ' ' << s.b.y << '\n';
    }
    for (const FlightPlan& plan : world.plans) {
      out << plan.name << ' ' << plan.start.position.x << ' '
          << plan.start.position.y << ' ' << plan.start.yaw << '\n';
      for (const Waypoint& wp : plan.path) {
        out << wp.position.x << ' ' << wp.position.y << '\n';
      }
    }
    const map::OccupancyGrid grid =
        rasterize_environment(world.env, 0.05, 0.01);
    map::save_grid(grid, out, map::GridFormat::kV2);
  }
  return out.str();
}

// Golden digest (see golden_digest.hpp). No kernel code runs here, so it
// runs once, in the main ctest entry.
TEST(WorldGenDeterminism, TraceMatchesCommittedDigest) {
  golden::expect_digest("worldgen trace", 0x4c20c05a1feadcc6ull,
                        worldgen_trace);
}

}  // namespace
}  // namespace tofmcl::sim
