// Kidnapped-drone recovery: the classic stress test for global
// localization. The filter tracks the drone through the maze, then the
// drone is "teleported" (we splice in a flight from a different start
// without telling the odometry). The Augmented-MCL recovery injection
// (core/mcl_config.hpp) re-seeds hypotheses and the filter re-localizes.
//
// Usage: kidnapped_drone [particles]

#include <cstdio>
#include <cstdlib>

#include "core/localizer.hpp"
#include "example_args.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

using namespace tofmcl;

namespace {

constexpr const char* kUsage = "usage: kidnapped_drone [particles]\n";

void replay(core::Localizer& localizer, const sim::Sequence& seq,
            double t_offset, const char* tag) {
  std::size_t frame_idx = 0;
  for (const sim::StateSample& odom : seq.odometry) {
    localizer.on_odometry(odom.pose);
    while (frame_idx + 1 < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const sensor::TofFrame pair[2] = {seq.frames[frame_idx],
                                        seq.frames[frame_idx + 1]};
      frame_idx += 2;
      if (!localizer.on_frames(pair)) continue;
      const core::PoseEstimate& est = localizer.estimate();
      const Pose2 truth = sim::interpolate_pose(seq.ground_truth, odom.t);
      const double err = (est.pose.position - truth.position).norm();
      static int counter = 0;
      if (++counter % 20 == 0) {
        std::printf("  [%s] t=%5.1f s  error=%.2f m  spread=%.2f m\n", tag,
                    t_offset + odom.t, err, est.position_stddev);
      }
    }
  }
}

double final_error(const core::Localizer& localizer,
                   const sim::Sequence& seq) {
  const Pose2 truth = seq.ground_truth.back().pose;
  return (localizer.estimate().pose.position - truth.position).norm();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 2) examples::usage_error("too many arguments", kUsage);
  const std::size_t particles =
      argc > 1 ? examples::parse_number<std::size_t>(argv[1], kUsage, 1)
               : 8192;

  const sim::EvaluationEnvironment env = sim::evaluation_environment();
  const map::OccupancyGrid grid = sim::rasterize_environment(env);
  const auto plans = sim::standard_flight_plans();

  // Leg 1: the left-loop flight. Leg 2: a flight starting at the OTHER
  // side of the maze — the "kidnapping". The odometry stream of leg 2 is
  // self-consistent but unrelated to leg 1's end pose, exactly what a
  // powered-off carry or a tracking blackout produces.
  Rng rng(99);
  const sim::Sequence leg1 = sim::generate_sequence(
      env.world, plans[0], sim::default_generator_config(), rng);
  const sim::Sequence leg2 = sim::generate_sequence(
      env.world, plans[2], sim::default_generator_config(), rng);

  core::LocalizerConfig config;
  config.precision = core::Precision::kFp32Qm;
  config.mcl.num_particles = particles;
  config.mcl.seed = 5;
  core::SerialExecutor executor;
  core::Localizer localizer(grid, config, executor);

  std::printf("=== leg 1: global localization on %s ===\n",
              leg1.name.c_str());
  localizer.on_odometry(leg1.odometry.front().pose);
  localizer.start_global();
  replay(localizer, leg1, 0.0, "leg1");
  const double err1 = final_error(localizer, leg1);
  std::printf("end of leg 1: error %.2f m — %s\n\n", err1,
              err1 < 0.3 ? "locked" : "NOT locked");

  std::printf(
      "=== kidnapping: drone teleports from (%.1f, %.1f) to (%.1f, %.1f) "
      "===\n",
      leg1.ground_truth.back().pose.x(), leg1.ground_truth.back().pose.y(),
      leg2.ground_truth.front().pose.x(),
      leg2.ground_truth.front().pose.y());
  std::printf("(the filter is NOT re-initialized — recovery must come from\n"
              " the Augmented-MCL injection watching its likelihood drop)\n\n");

  std::printf("=== leg 2: %s after the kidnap ===\n", leg2.name.c_str());
  // Feed leg 2 without restarting: its odometry frame is new, but the
  // localizer only consumes deltas, so this is exactly a teleport.
  replay(localizer, leg2, leg1.duration_s, "leg2");
  const double err2 = final_error(localizer, leg2);
  std::printf("\nend of leg 2: error %.2f m — %s\n", err2,
              err2 < 0.3 ? "RECOVERED" : "lost");
  return err2 < 0.3 ? 0 : 1;
}
