#pragma once
/// \file sequence_generator.hpp
/// \brief End-to-end flight simulation producing evaluation sequences.
///
/// Ties the substrates together: the kinematic drone follows a waypoint
/// plan through the maze while the gyro/flow models feed the EKF (the
/// drifting odometry) and the two multizone ToF sensors measure the true
/// world. The result is a Sequence — the same data triple the paper
/// recorded on the real platform. The drone, gyro, flow and EKF models run
/// with their default configs on a 100 Hz physics tick, and odometry is
/// recorded at 50 Hz (constants in sequence_generator.cpp).

#include <cstdint>
#include <string>
#include <vector>

#include "map/world.hpp"
#include "sensor/tof_sensor.hpp"
#include "sim/controller.hpp"
#include "sim/dataset.hpp"
#include "sim/dynamic_obstacles.hpp"

namespace tofmcl::sim {

/// The data-generation knobs a caller sets.
struct SequenceGeneratorConfig {
  double tof_rate_hz = 15.0;     ///< Per-sensor frame rate (8×8 limit).
  double timeout_s = 180.0;      ///< Abort limit for a plan.
  sensor::TofSensorConfig front_tof;  ///< Forward-facing sensor.
  sensor::TofSensorConfig rear_tof;   ///< Backward-facing sensor.
  /// Moving entities composited into every rendered ToF frame (the
  /// localization map never sees them). Empty = static world, and the
  /// generated data is bit-identical to the pre-obstacle pipeline.
  std::vector<DynamicObstacle> obstacles;
};

/// Config with the paper's deck layout: front sensor at +2 cm yaw 0,
/// rear sensor at −2 cm yaw π, both 8×8 at 15 Hz.
SequenceGeneratorConfig default_generator_config();

/// A named flight through the maze.
struct FlightPlan {
  std::string name;
  Pose2 start{};
  std::vector<Waypoint> path;
  ControllerConfig controller;
};

/// The six scripted evaluation flights through drone_maze(), mirroring the
/// paper's six recorded sequences: loops, tours in both directions, a fast
/// shuttle and a slow yaw-sweeping scan.
std::vector<FlightPlan> standard_flight_plans();

/// Simulate one flight. `rng` drives every noise source; pass generators
/// seeded per (sequence, repetition) for reproducible experiments.
Sequence generate_sequence(const map::World& world, const FlightPlan& plan,
                           const SequenceGeneratorConfig& config, Rng& rng);

}  // namespace tofmcl::sim
