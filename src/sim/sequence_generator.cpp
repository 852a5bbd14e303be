#include "sim/sequence_generator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "estimation/ekf.hpp"
#include "estimation/sensor_models.hpp"
#include "sim/drone.hpp"

namespace tofmcl::sim {

namespace {
constexpr double kSimDt = 0.01;       ///< Physics/EKF tick (100 Hz).
constexpr double kOdomRateHz = 50.0;  ///< Recorded state-estimate rate.
static_assert(kSimDt > 0.0, "simulation step must be positive");
static_assert(kOdomRateHz > 0.0, "odometry rate must be positive");
}  // namespace

SequenceGeneratorConfig default_generator_config() {
  SequenceGeneratorConfig cfg;
  cfg.front_tof.sensor_id = 0;
  cfg.front_tof.mount = Pose2{0.02, 0.0, 0.0};
  cfg.rear_tof.sensor_id = 1;
  cfg.rear_tof.mount = Pose2{-0.02, 0.0, kPi};
  cfg.front_tof.flight_height_m = DroneConfig{}.flight_height_m;
  cfg.rear_tof.flight_height_m = DroneConfig{}.flight_height_m;
  return cfg;
}

std::vector<FlightPlan> standard_flight_plans() {
  std::vector<FlightPlan> plans;

  // Corridor landmarks of drone_maze(): left corridor x=0.5, middle
  // corridor x=1.5, the D-gap at (1.75, 2.85), the E-gap at (2.8, 1.2),
  // the C-top crossing near (3.3, 3.3).
  {
    FlightPlan p;
    p.name = "seq01_left_loop";
    p.start = {0.5, 0.6, kPi / 2.0};
    p.path = {{{0.5, 3.4}, 0.4}, {{1.5, 3.45}, 0.35}, {{1.75, 2.85}, 0.3},
              {{1.5, 2.2}, 0.35}, {{1.5, 0.6}, 0.4}, {{1.5, 2.2}, 0.35},
              {{1.75, 2.85}, 0.3}, {{1.5, 3.45}, 0.3}, {{0.5, 3.4}, 0.35},
              {{0.5, 0.6}, 0.4}};
    plans.push_back(std::move(p));
  }
  {
    FlightPlan p;
    p.name = "seq02_grand_tour";
    p.start = {1.5, 0.6, 0.0};
    // The E-gap (x ≈ 2.8, y = 1.2) and the F-gap (x ≈ 2.2, y = 2.0) are
    // crossed on straight vertical legs so waypoint corner-cutting cannot
    // clip the stub walls.
    p.path = {{{2.4, 0.6}, 0.4}, {{2.8, 0.95}, 0.3}, {{2.8, 1.4}, 0.3},
              {{2.2, 1.7}, 0.3}, {{2.2, 2.6}, 0.3}, {{2.5, 3.3}, 0.35},
              {{3.3, 3.3}, 0.35}, {{3.5, 2.5}, 0.35}, {{3.5, 0.6}, 0.4},
              {{3.5, 2.5}, 0.35}, {{3.3, 3.3}, 0.35}, {{2.5, 3.3}, 0.35},
              {{2.2, 2.6}, 0.3}, {{2.2, 1.7}, 0.3}, {{2.8, 1.4}, 0.3},
              {{2.8, 0.95}, 0.3}, {{2.4, 0.7}, 0.35}, {{1.5, 0.6}, 0.4}};
    plans.push_back(std::move(p));
  }
  {
    FlightPlan p;
    p.name = "seq03_reverse_tour";
    p.start = {3.5, 0.6, kPi / 2.0};
    p.path = {{{3.5, 2.5}, 0.45}, {{3.3, 3.3}, 0.35}, {{2.5, 3.3}, 0.4},
              {{2.2, 2.6}, 0.3}, {{2.2, 1.7}, 0.3}, {{2.8, 1.4}, 0.3},
              {{2.8, 0.95}, 0.3}, {{2.4, 0.7}, 0.35}, {{1.5, 0.6}, 0.45},
              {{2.4, 0.7}, 0.35}, {{2.8, 0.95}, 0.3}, {{2.8, 1.4}, 0.3},
              {{2.2, 1.7}, 0.3}, {{2.2, 2.6}, 0.3}, {{2.5, 3.3}, 0.35},
              {{3.3, 3.3}, 0.35}, {{3.5, 2.5}, 0.4}, {{3.5, 0.6}, 0.45}};
    plans.push_back(std::move(p));
  }
  {
    FlightPlan p;
    p.name = "seq04_middle_shuttle";
    p.start = {1.5, 2.4, -kPi / 2.0};
    p.path = {{{1.5, 0.7}, 0.5}, {{2.4, 0.6}, 0.5}, {{1.3, 0.6}, 0.5},
              {{1.5, 2.4}, 0.5}, {{1.5, 0.7}, 0.5}, {{2.4, 0.6}, 0.5},
              {{1.3, 0.6}, 0.5}, {{1.5, 2.4}, 0.5}};
    plans.push_back(std::move(p));
  }
  {
    FlightPlan p;
    p.name = "seq05_right_pocket";
    p.start = {3.5, 0.6, kPi / 2.0};
    p.path = {{{3.5, 3.4}, 0.4}, {{2.6, 3.4}, 0.3}, {{2.2, 2.6}, 0.3},
              {{2.2, 1.7}, 0.3}, {{2.8, 1.4}, 0.25}, {{2.8, 0.95}, 0.25},
              {{2.4, 0.7}, 0.35}, {{1.5, 0.7}, 0.4}, {{2.4, 0.7}, 0.35},
              {{2.8, 0.95}, 0.25}, {{2.8, 1.4}, 0.25}, {{2.2, 1.7}, 0.3},
              {{2.2, 2.6}, 0.3}, {{2.6, 3.4}, 0.3}, {{3.5, 3.4}, 0.35},
              {{3.5, 0.6}, 0.4}};
    plans.push_back(std::move(p));
  }
  {
    FlightPlan p;
    p.name = "seq06_slow_scan";
    p.start = {0.5, 0.6, 0.0};
    p.path = {{{0.5, 2.0}, 0.25}, {{0.5, 3.4}, 0.25}, {{1.5, 3.45}, 0.25},
              {{1.75, 2.85}, 0.25}, {{1.6, 2.3}, 0.25}, {{1.75, 2.85}, 0.25},
              {{1.5, 3.45}, 0.25}, {{0.5, 3.4}, 0.25}, {{0.5, 0.6}, 0.25}};
    p.controller.yaw_mode = YawMode::kSweep;
    p.controller.sweep_rate_rad_s = 0.6;
    plans.push_back(std::move(p));
  }
  return plans;
}

Sequence generate_sequence(const map::World& world, const FlightPlan& plan,
                           const SequenceGeneratorConfig& config, Rng& rng) {
  TOFMCL_EXPECTS(config.tof_rate_hz > 0.0, "ToF frame rate must be positive");

  Drone drone(DroneConfig{}, plan.start);
  WaypointController controller(plan.path, plan.controller);
  estimation::Gyro gyro(estimation::GyroConfig{}, rng);
  estimation::FlowSensor flow(estimation::FlowConfig{}, rng);
  // The odometry frame starts at its own origin — only relative motion is
  // meaningful, as on the real platform.
  estimation::Ekf ekf(Pose2{});
  const sensor::MultizoneToF front(config.front_tof);
  const sensor::MultizoneToF rear(config.rear_tof);

  Sequence seq;
  seq.name = plan.name;
  seq.min_clearance_m = world.clearance(drone.pose().position);

  const double odom_period = 1.0 / kOdomRateHz;
  const double tof_period = 1.0 / config.tof_rate_hz;
  double next_odom_t = 0.0;
  double next_tof_t = tof_period / 2.0;  // first frame after some motion

  double t = 0.0;
  while (!controller.done() && t < config.timeout_s) {
    const VelocityCommand cmd = controller.command(drone.pose());
    drone.step(cmd, kSimDt);
    t += kSimDt;

    const double gyro_meas = gyro.measure(drone.yaw_rate(), kSimDt, rng);
    ekf.predict(gyro_meas, kSimDt);
    const estimation::FlowMeasurement flow_meas =
        flow.measure(drone.velocity_body(), rng);
    if (flow_meas.valid) ekf.update_flow(flow_meas.velocity_body);

    seq.min_clearance_m =
        std::min(seq.min_clearance_m, world.clearance(drone.pose().position));

    if (t + 1e-9 >= next_odom_t) {
      seq.odometry.push_back({t, ekf.pose()});
      seq.ground_truth.push_back({t, drone.pose()});
      next_odom_t += odom_period;
    }
    if (t + 1e-9 >= next_tof_t) {
      const std::vector<sensor::CylinderObstacle> circles =
          obstacle_circles(config.obstacles, t);
      seq.frames.push_back(front.measure(world, circles, drone.pose(), t,
                                         rng));
      seq.frames.push_back(rear.measure(world, circles, drone.pose(), t,
                                        rng));
      next_tof_t += tof_period;
    }
  }
  seq.duration_s = t;
  return seq;
}

}  // namespace tofmcl::sim
