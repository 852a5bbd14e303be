// Diagnostic harness (not installed): heavy-crowd and stale-map
// observation-model sweeps. Replays one generated-world scenario — N
// crossing pedestrians plus an optional corridor-pacing walker, optionally
// flying through a seeded MUTATION of the world while localizing against
// the pristine map — across a block of data seeds, once with the baseline
// two-term likelihood and once with the short-return mixture + novelty
// gating, printing per-seed convergence, ATE and injection activity side
// by side. This is the tool that tuned the heavy-crowd scenario family,
// the StaleMapStats staleness gates and their statistical bounds in
// tests/test_scenario_matrix.cpp.
//
// Usage: debug_crowd [kind] [world_seed] [plan] [crossers] [pace] [seeds]
//                    [particles] [z_short] [stale_level] [mutation_seed0]
//   kind: 0 office, 1 warehouse, 2 loop corridor
//   plan: index into the world's flight plans (0 tour, 1 reverse,
//     2 shuttle)
//   stale_level: 0 pristine (default), 1 light, 2 heavy — seed s of the
//     sweep mutates the world with mutation_seed0 + s, so gate thresholds
//     marginalize over staleness draws the same way StaleMapStats does
// Every argument must be a whole non-negative number (z_short a decimal,
// the others integers). An argument that is not, zero particles, or a
// kind, plan or stale level out of range, prints the usage line on stderr
// and exits with code 2.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

#include "core/localizer.hpp"
#include "eval/campaign.hpp"
#include "eval/metrics.hpp"
#include "sim/dynamic_obstacles.hpp"
#include "sim/sequence_generator.hpp"
#include "sim/worldgen.hpp"

using namespace tofmcl;

namespace {

struct ModelResult {
  eval::RunMetrics metrics;
  double final_err = 0.0;
  double max_inject = 0.0;
  std::size_t inject_events = 0;
  std::size_t gated_total = 0;
  std::size_t updates = 0;
  std::size_t armed = 0;
  double stddev_sum = 0.0;
};

ModelResult replay(const map::OccupancyGrid& grid, const sim::Sequence& seq,
                   const sim::SequenceGeneratorConfig& gen,
                   std::uint64_t mcl_seed, std::size_t particles,
                   double z_short, bool gating) {
  core::SerialExecutor exec;
  core::LocalizerConfig lc;
  lc.mcl.num_particles = particles;
  lc.mcl.seed = mcl_seed;
  lc.mcl.z_short = z_short;
  lc.mcl.enable_novelty_gating = gating;
  lc.sensors = {gen.front_tof, gen.rear_tof};
  core::Localizer loc(grid, lc, exec);
  loc.on_odometry(seq.odometry.front().pose);
  loc.start_at(seq.ground_truth.front().pose, 0.2, 0.2);

  ModelResult out;
  std::vector<eval::ErrorSample> trace;
  std::size_t frame_idx = 0;
  std::vector<sensor::TofFrame> group;
  for (const sim::StateSample& odom : seq.odometry) {
    loc.on_odometry(odom.pose);
    while (frame_idx < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const double stamp = seq.frames[frame_idx].timestamp_s;
      group.clear();
      while (frame_idx < seq.frames.size() &&
             seq.frames[frame_idx].timestamp_s == stamp) {
        group.push_back(seq.frames[frame_idx]);
        ++frame_idx;
      }
      if (!loc.on_frames(group) || !loc.estimate().valid) continue;
      const Pose2 truth = sim::interpolate_pose(seq.ground_truth, stamp);
      const double pos_err =
          (loc.estimate().pose.position - truth.position).norm();
      trace.push_back({stamp, pos_err, 0.0});
      out.final_err = pos_err;
      out.gated_total += loc.workload().gated_beams;
      if (loc.workload().novelty_armed) ++out.armed;
      out.stddev_sum += loc.estimate().position_stddev;
      const double p = loc.injection_monitor().last_inject_p;
      if (p > 0.0) ++out.inject_events;
      if (p > out.max_inject) out.max_inject = p;
      ++out.updates;
    }
  }
  out.metrics = eval::evaluate_run(trace);
  return out;
}

int usage_error(const char* what) {
  std::fprintf(stderr,
               "debug_crowd: %s\n"
               "usage: debug_crowd [kind 0-2] [world_seed] [plan] "
               "[crossers] [pace] [seeds] [particles] [z_short] "
               "[stale_level 0-2] [mutation_seed0]\n",
               what);
  return 2;
}

/// Argument `i`, or `fallback` when it is absent. The whole token must
/// parse as a non-negative (and, for a decimal, finite) T; anything else
/// is a usage error.
template <typename T>
T parse_arg(int argc, char** argv, int i, T fallback) {
  if (i >= argc) return fallback;
  const char* text = argv[i];
  const char* end = text + std::strlen(text);
  T value{};
  const auto [last, error] = std::from_chars(text, end, value);
  bool ok = error == std::errc() && last == end;
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value) && value >= 0.0;
  }
  if (!ok) {
    const std::string what = "argument " + std::to_string(i) + " ('" + text +
                             "') is not a non-negative number";
    std::exit(usage_error(what.c_str()));
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t kind_i = parse_arg<std::size_t>(argc, argv, 1, 1);
  const std::uint64_t world_seed = parse_arg<std::uint64_t>(argc, argv, 2, 2);
  const std::size_t plan = parse_arg<std::size_t>(argc, argv, 3, 0);
  const std::size_t crossers = parse_arg<std::size_t>(argc, argv, 4, 5);
  const bool pace = parse_arg<std::size_t>(argc, argv, 5, 0) != 0;
  const std::size_t n_seeds = parse_arg<std::size_t>(argc, argv, 6, 5);
  const std::size_t particles = parse_arg<std::size_t>(argc, argv, 7, 4096);
  const double z_short = parse_arg<double>(argc, argv, 8, 0.5);
  const std::size_t stale_level = parse_arg<std::size_t>(argc, argv, 9, 0);
  const std::uint64_t mutation_seed0 =
      parse_arg<std::uint64_t>(argc, argv, 10, 500);
  if (kind_i > 2) return usage_error("kind must be 0, 1 or 2");
  if (particles == 0) return usage_error("particles must be at least 1");
  if (stale_level > 2) return usage_error("stale_level must be 0, 1 or 2");
  const auto stale = static_cast<sim::MutationLevel>(stale_level);

  sim::WorldGenConfig wc;
  wc.seed = world_seed;
  const auto kind = static_cast<sim::GeneratedWorldKind>(kind_i);
  sim::GeneratedWorld world = sim::generate_world(kind, wc);
  if (plan >= world.plans.size()) {
    return usage_error("plan is not an index into the world's flight plans");
  }
  const map::OccupancyGrid grid =
      sim::rasterize_environment(world.env, 0.05, 0.01);
  std::printf("world %s seed=%llu plan=%s crossers=%zu pace=%d stale=%s\n",
              sim::to_string(kind),
              static_cast<unsigned long long>(world_seed),
              world.plans[plan].name.c_str(), crossers, pace ? 1 : 0,
              sim::to_string(stale));

  for (std::size_t s = 0; s < n_seeds; ++s) {
    const std::uint64_t data_seed = 100 + s;
    sim::SequenceGeneratorConfig gen = sim::default_generator_config();
    if (crossers > 0) {
      gen.obstacles = sim::scatter_obstacles_seeded(world.plans, crossers,
                                                    1.0, data_seed);
    }
    if (pace) {
      gen.obstacles.push_back(sim::pace_obstacle(world.plans[plan], 1.2,
                                                 0.35));
    }
    // Stale sweep: fly/sense a per-seed mutation of the world; `grid`
    // (the localization map) stays pristine.
    const map::World* flight_world = &world.env.world;
    sim::EvaluationEnvironment stale_env;
    if (stale != sim::MutationLevel::kNone) {
      sim::MutationSummary ms;
      stale_env = sim::mutate_world(world.env, world.plans, stale,
                                    mutation_seed0 + s, &ms);
      flight_world = &stale_env.world;
      std::printf(
          "  mutation seed %llu: +%zu clutter, %zu moved, %zu removed, "
          "%zu closed, %zu narrowed\n",
          static_cast<unsigned long long>(mutation_seed0 + s),
          ms.clutter_added, ms.boxes_moved, ms.boxes_removed,
          ms.doors_closed, ms.doors_narrowed);
    }
    Rng rng(data_seed);
    const sim::Sequence seq =
        sim::generate_sequence(*flight_world, world.plans[plan], gen, rng);

    const ModelResult base =
        replay(grid, seq, gen, 7 + s, particles, 0.0, false);
    const ModelResult mix =
        replay(grid, seq, gen, 7 + s, particles, z_short, true);
    std::printf(
        "seed %llu dur=%5.1fs | base: conv=%d ok=%d ate=%.3f max=%.3f "
        "fin=%.3f inj=%zu/%.3f | mix: conv=%d ok=%d ate=%.3f max=%.3f "
        "fin=%.3f inj=%zu/%.3f gated=%zu armed=%zu/%zu sd=%.2f\n",
        static_cast<unsigned long long>(data_seed), seq.duration_s,
        base.metrics.converged ? 1 : 0, base.metrics.success ? 1 : 0,
        base.metrics.ate_m, base.metrics.max_error_after_convergence_m,
        base.final_err, base.inject_events, base.max_inject,
        mix.metrics.converged ? 1 : 0, mix.metrics.success ? 1 : 0,
        mix.metrics.ate_m, mix.metrics.max_error_after_convergence_m,
        mix.final_err, mix.inject_events, mix.max_inject, mix.gated_total,
        mix.armed, mix.updates,
        mix.stddev_sum / static_cast<double>(std::max<std::size_t>(
                             mix.updates, 1)));
  }
  return 0;
}
