// worldgen_tour — generate a procedural world, fly its tour, localize.
//
//   worldgen_tour [--world office|warehouse|loop] [--seed N]
//                 [--plan 0|1|2] [--obstacles N] [--speed V]
//                 [--particles N] [--tracking] [--ascii]
//                 [--save-map FILE]
//
// Prints the generated layout (optional), runs the full pipeline —
// generate world → plan tour → simulate flight (optionally with crossing
// pedestrians composited into the ToF frames) → localize against the
// static map — and reports the paper's metrics. --save-map writes the
// occupancy grid in the compact v2 format.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/executor.hpp"
#include "core/localizer.hpp"
#include "eval/campaign.hpp"
#include "eval/metrics.hpp"
#include "example_args.hpp"
#include "map/map_io.hpp"
#include "sim/dynamic_obstacles.hpp"
#include "sim/worldgen.hpp"

using namespace tofmcl;

namespace {

constexpr const char* kUsage =
    "worldgen_tour — generate a world, fly it, localize\n"
    "  --world K      office | warehouse | loop (default office)\n"
    "  --seed N       procedural seed (default 1)\n"
    "  --plan I       0 tour, 1 reverse, 2 shuttle (default 0)\n"
    "  --obstacles N  crossing pedestrians (default 0)\n"
    "  --speed V      obstacle walking speed m/s (default 1.2)\n"
    "  --particles N  filter size (default 8192)\n"
    "  --tracking     start from the known pose instead of global\n"
    "  --ascii        print the generated map\n"
    "  --save-map F   write the occupancy grid (v2 format)\n";

}  // namespace

int main(int argc, char** argv) {
  sim::GeneratedWorldKind kind = sim::GeneratedWorldKind::kOffice;
  std::uint64_t seed = 1;
  std::size_t plan_index = 0;
  std::size_t obstacles = 0;
  double obstacle_speed = 1.2;
  std::size_t particles = 8192;
  bool tracking = false;
  bool ascii = false;
  const char* save_map = nullptr;

  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (is("--help") || is("-h")) {
      std::printf("%s", kUsage);
      return 0;
    } else if (is("--world")) {
      const std::string w = value();
      if (w == "office") kind = sim::GeneratedWorldKind::kOffice;
      else if (w == "warehouse") kind = sim::GeneratedWorldKind::kWarehouse;
      else if (w == "loop") kind = sim::GeneratedWorldKind::kLoopCorridor;
      else {
        std::fprintf(stderr, "unknown world: %s\n", w.c_str());
        return 2;
      }
    } else if (is("--seed")) {
      seed = examples::parse_number<std::uint64_t>(value(), kUsage);
    } else if (is("--plan")) {
      plan_index = examples::parse_number<std::size_t>(value(), kUsage);
    } else if (is("--obstacles")) {
      obstacles = examples::parse_number<std::size_t>(value(), kUsage);
    } else if (is("--speed")) {
      obstacle_speed = examples::parse_number<double>(value(), kUsage, 0.0);
    } else if (is("--particles")) {
      particles = examples::parse_number<std::size_t>(value(), kUsage, 1);
    } else if (is("--tracking")) {
      tracking = true;
    } else if (is("--ascii")) {
      ascii = true;
    } else if (is("--save-map")) {
      save_map = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return 2;
    }
  }

  sim::WorldGenConfig config;
  config.seed = seed;
  const sim::GeneratedWorld world = sim::generate_world(kind, config);
  std::printf("%s seed %llu: %zu wall segments, %zu landmarks, %zu plans\n",
              sim::to_string(kind), static_cast<unsigned long long>(seed),
              world.env.world.segments().size(),
              world.points_of_interest.size(), world.plans.size());
  if (plan_index >= world.plans.size()) {
    std::fprintf(stderr, "plan index out of range (have %zu)\n",
                 world.plans.size());
    return 2;
  }

  const map::OccupancyGrid grid =
      sim::rasterize_environment(world.env, 0.05, 0.01);
  if (ascii) std::printf("%s", map::to_ascii(grid).c_str());
  if (save_map != nullptr) {
    map::save_grid(grid, std::filesystem::path(save_map));
    std::printf("map written to %s (v2, %d x %d cells)\n", save_map,
                grid.width(), grid.height());
  }

  sim::SequenceGeneratorConfig gen = sim::default_generator_config();
  if (obstacles > 0) {
    gen.obstacles = sim::scatter_obstacles_seeded(world.plans, obstacles,
                                                  obstacle_speed, 21);
    std::printf("%zu crossing obstacles at %.1f m/s\n", obstacles,
                obstacle_speed);
  }
  Rng data_rng(21);
  const sim::Sequence seq = sim::generate_sequence(
      world.env.world, world.plans[plan_index], gen, data_rng);
  std::printf("flew '%s': %.1f s, %zu frames, min wall clearance %.2f m\n",
              seq.name.c_str(), seq.duration_s, seq.frames.size(),
              seq.min_clearance_m);

  core::LocalizerConfig lc;
  lc.mcl.num_particles = particles;
  lc.mcl.seed = 7;
  lc.sensors = {gen.front_tof, gen.rear_tof};
  core::SerialExecutor exec;
  core::Localizer loc(grid, lc, exec);
  loc.on_odometry(seq.odometry.front().pose);
  if (tracking) {
    loc.start_at(seq.ground_truth.front().pose, 0.2, 0.2);
  } else {
    loc.start_global();
  }

  eval::CampaignRunResult replay;
  eval::replay_leg(loc, seq, 0.0, true, replay);
  const eval::RunMetrics metrics = eval::evaluate_run(replay.errors);
  std::printf(
      "localization (%s, %zu particles): converged=%s t=%.1f s  "
      "ATE=%.3f m  final error=%.3f m  success=%s\n",
      tracking ? "tracking" : "global", particles,
      metrics.converged ? "yes" : "no", metrics.convergence_time_s,
      metrics.ate_m,
      replay.errors.empty() ? -1.0 : replay.errors.back().pos_error,
      metrics.success ? "yes" : "no");
  return metrics.converged ? 0 : 1;
}
