// The paper's headline scenario (Fig 1): global localization of the
// nano-UAV flying through the drone maze, with the map extended by three
// artificial mazes to 31.2 m² of structured area. The estimate may start
// in a wrong maze and converges to the true pose as observations
// accumulate.
//
// Usage: maze_localization [plan 0..5] [particles] [seed] [--csv FILE]
// The optional CSV dumps t, truth pose, estimate pose, error — the data
// behind a Fig 1-style trajectory plot.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "core/localizer.hpp"
#include "eval/experiment.hpp"
#include "example_args.hpp"
#include "map/map_io.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

using namespace tofmcl;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: maze_localization [plan 0..5] [particles] [seed] "
      "[--csv FILE]\n";
  std::size_t plan_index = 1;  // seq02_grand_tour by default
  std::size_t particles = 4096;
  std::uint64_t seed = 2023;
  const char* csv_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
    } else if (i == 1) {
      plan_index = examples::parse_number<std::size_t>(argv[i], kUsage);
      if (plan_index > 5) examples::usage_error("plan must be 0..5", kUsage);
    } else if (i == 2) {
      particles = examples::parse_number<std::size_t>(argv[i], kUsage, 1);
    } else if (i == 3) {
      seed = examples::parse_number<std::uint64_t>(argv[i], kUsage);
    } else {
      examples::usage_error("too many arguments", kUsage);
    }
  }

  // The composite evaluation environment: real maze + 3 artificial ones.
  const sim::EvaluationEnvironment env = sim::evaluation_environment();
  const map::OccupancyGrid grid = sim::rasterize_environment(env);
  std::printf("environment: %.1f m^2 structured area in %d x %d cells\n",
              env.structured_area_m2, grid.width(), grid.height());

  // Record a flight through the REAL maze (region 0).
  const auto plans = sim::standard_flight_plans();
  const sim::FlightPlan& plan = plans[plan_index];
  Rng rng(seed);
  const sim::Sequence seq = sim::generate_sequence(
      env.world, plan, sim::default_generator_config(), rng);
  std::printf("flight: %s, %.1f s, %zu ToF frames, min clearance %.2f m\n",
              seq.name.c_str(), seq.duration_s, seq.frames.size(),
              seq.min_clearance_m);

  // Localize globally while replaying.
  core::LocalizerConfig config;
  config.precision = core::Precision::kFp16Qm;  // the leanest variant
  config.mcl.num_particles = particles;
  config.mcl.seed = seed;
  core::SerialExecutor executor;
  core::Localizer localizer(grid, config, executor);
  localizer.on_odometry(seq.odometry.front().pose);
  localizer.start_global();

  std::ofstream csv;
  if (csv_path != nullptr) {
    csv.open(csv_path);
    csv << "t,true_x,true_y,true_yaw,est_x,est_y,est_yaw,error_m\n";
  }

  std::size_t frame_idx = 0;
  double convergence_time = -1.0;
  std::size_t corrections = 0;
  for (const sim::StateSample& odom : seq.odometry) {
    localizer.on_odometry(odom.pose);
    while (frame_idx + 1 < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const sensor::TofFrame pair[2] = {seq.frames[frame_idx],
                                        seq.frames[frame_idx + 1]};
      frame_idx += 2;
      if (!localizer.on_frames(pair)) continue;
      ++corrections;
      const core::PoseEstimate& est = localizer.estimate();
      const Pose2 truth = sim::interpolate_pose(seq.ground_truth, odom.t);
      const double err = (est.pose.position - truth.position).norm();
      if (convergence_time < 0.0 && err < 0.2 &&
          angle_dist(est.pose.yaw, truth.yaw) < deg_to_rad(36.0)) {
        convergence_time = odom.t;
        std::printf("  converged at t=%.1f s (error %.2f m)\n", odom.t, err);
      }
      if (csv.is_open()) {
        csv << odom.t << ',' << truth.x() << ',' << truth.y() << ','
            << truth.yaw << ',' << est.pose.x() << ',' << est.pose.y() << ','
            << est.pose.yaw << ',' << err << '\n';
      }
      if (corrections % 25 == 0) {
        std::printf("  t=%5.1f s: error %.2f m, cloud spread %.2f m\n",
                    odom.t, err, est.position_stddev);
      }
    }
  }

  const core::PoseEstimate& est = localizer.estimate();
  const Pose2 truth = seq.ground_truth.back().pose;
  const double err = (est.pose.position - truth.position).norm();
  std::printf("\nresult after %zu corrections:\n", corrections);
  std::printf("  true pose     : (%.2f, %.2f, %5.1f deg)\n", truth.x(),
              truth.y(), rad_to_deg(truth.yaw));
  std::printf("  estimate      : (%.2f, %.2f, %5.1f deg)\n", est.pose.x(),
              est.pose.y(), rad_to_deg(est.pose.yaw));
  std::printf("  position error: %.3f m\n", err);
  if (convergence_time >= 0.0) {
    std::printf("  converged at  : %.1f s\n", convergence_time);
  } else {
    std::printf("  did not converge within the sequence\n");
  }
  if (csv_path != nullptr) {
    std::printf("  trajectory CSV: %s\n", csv_path);
  }
  return 0;
}
