// Path planning + on-board localization — the closed loop the paper
// names as future work (Section V). An A* path with clearance costs is
// planned on the same occupancy grid the localizer uses; the drone flies
// the simplified waypoints while MCL tracks it against the map.
//
// Usage: plan_and_fly [start_x start_y goal_x goal_y]

#include <cstdio>
#include <cstdlib>

#include "core/localizer.hpp"
#include "example_args.hpp"
#include "plan/astar.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

using namespace tofmcl;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: plan_and_fly [start_x start_y [goal_x goal_y]]\n";
  if (argc != 1 && argc != 3 && argc != 5) {
    examples::usage_error("expected 0, 2 or 4 coordinates", kUsage);
  }
  const auto coord = [&](int i, double fallback) {
    return argc > i ? examples::parse_number<double>(argv[i], kUsage)
                    : fallback;
  };
  const Vec2 start{coord(1, 0.5), coord(2, 0.6)};
  const Vec2 goal{coord(3, 3.5), coord(4, 0.6)};

  // Map + distance field (shared by planner and localizer).
  const map::World maze = sim::drone_maze();
  sim::EvaluationEnvironment env;
  env.world = maze;
  env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
  const map::OccupancyGrid grid = sim::rasterize_environment(env, 0.05, 0.0);
  const map::DistanceMap distance(grid, 1.5);

  // --- Plan ---
  plan::PlannerConfig planner;
  planner.min_clearance_m = 0.13;
  const auto path = plan::plan_path(grid, distance, start, goal, planner);
  if (!path) {
    std::printf("no path from (%.2f, %.2f) to (%.2f, %.2f)\n", start.x,
                start.y, goal.x, goal.y);
    return 1;
  }
  std::printf("planned %.1f m path with %zu waypoints:\n", path->length_m,
              path->waypoints.size());
  for (const Vec2& w : path->waypoints) {
    std::printf("  (%.2f, %.2f)\n", w.x, w.y);
  }

  // --- Fly it (simulated) while localizing on board ---
  sim::FlightPlan plan;
  plan.name = "planned_route";
  plan.start = Pose2{start, 0.0};
  for (std::size_t i = 1; i < path->waypoints.size(); ++i) {
    plan.path.push_back({path->waypoints[i], 0.35});
  }
  Rng rng(17);
  const sim::Sequence seq = sim::generate_sequence(
      maze, plan, sim::default_generator_config(), rng);
  std::printf("\nflight: %.1f s, min clearance %.2f m\n", seq.duration_s,
              seq.min_clearance_m);

  core::LocalizerConfig loc_cfg;
  loc_cfg.precision = core::Precision::kFp32Qm;
  loc_cfg.mcl.num_particles = 2048;
  loc_cfg.mcl.seed = 3;
  core::SerialExecutor executor;
  core::Localizer localizer(grid, loc_cfg, executor);
  localizer.on_odometry(seq.odometry.front().pose);
  // The drone knows where it takes off (tracking mode).
  localizer.start_at(seq.ground_truth.front().pose, 0.15, 0.15);

  std::size_t frame_idx = 0;
  double worst = 0.0;
  double sum = 0.0;
  std::size_t count = 0;
  for (const sim::StateSample& odom : seq.odometry) {
    localizer.on_odometry(odom.pose);
    while (frame_idx + 1 < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const sensor::TofFrame pair[2] = {seq.frames[frame_idx],
                                        seq.frames[frame_idx + 1]};
      frame_idx += 2;
      if (!localizer.on_frames(pair)) continue;
      const Pose2 truth = sim::interpolate_pose(seq.ground_truth, odom.t);
      const double err =
          (localizer.estimate().pose.position - truth.position).norm();
      worst = std::max(worst, err);
      sum += err;
      ++count;
    }
  }

  const Pose2 final_truth = seq.ground_truth.back().pose;
  const double goal_err = (final_truth.position - goal).norm();
  std::printf("\nflight result:\n");
  std::printf("  reached      : (%.2f, %.2f), %.2f m from goal\n",
              final_truth.x(), final_truth.y(), goal_err);
  std::printf("  localization : mean %.3f m, worst %.3f m over %zu "
              "corrections\n",
              count > 0 ? sum / static_cast<double>(count) : 0.0, worst,
              count);
  const bool ok = goal_err < 0.3 && count > 0 &&
                  sum / static_cast<double>(count) < 0.3;
  std::printf("%s\n", ok ? "plan + fly + localize: SUCCESS"
                         : "plan + fly + localize: degraded");
  return ok ? 0 : 1;
}
