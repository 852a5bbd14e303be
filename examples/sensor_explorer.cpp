// Sensor explorer: visualizes what the VL53L5CX multizone sensor "sees"
// from a chosen pose in the drone maze — the 8×8 zone matrix with slant
// distances and error flags, and the 2D beams the localizer extracts.
// Makes the sparse-sensing premise of the paper tangible.
//
// Usage: sensor_explorer [x] [y] [yaw_deg]

#include <cstdio>
#include <cstdlib>

#include "example_args.hpp"
#include "map/map_io.hpp"
#include "map/rasterize.hpp"
#include "sensor/beam_model.hpp"
#include "sim/maze.hpp"

using namespace tofmcl;

namespace {

void print_frame(const sensor::TofFrame& frame, const char* name) {
  std::printf("%s (8x8 zones, slant range in m, '----' = no return):\n",
              name);
  // Print top row (highest elevation) first.
  for (int row = frame.side() - 1; row >= 0; --row) {
    std::printf("  ");
    for (int col = 0; col < frame.side(); ++col) {
      const sensor::ZoneMeasurement& z = frame.zone(row, col);
      if (z.valid()) {
        std::printf("%4.2f ", z.distance_m);
      } else if (z.status == sensor::ZoneStatus::kInterference) {
        std::printf("xxxx ");
      } else {
        std::printf("---- ");
      }
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: sensor_explorer [x] [y] [yaw_deg]\n";
  if (argc > 4) examples::usage_error("too many arguments", kUsage);
  const auto number = [&](int i, double fallback) {
    return argc > i ? examples::parse_number<double>(argv[i], kUsage)
                    : fallback;
  };
  const double x = number(1, 0.5);
  const double y = number(2, 0.6);
  const double yaw = deg_to_rad(number(3, 90.0));
  const Pose2 pose{x, y, yaw};

  const map::World maze = sim::drone_maze();
  if (maze.clearance(pose.position) < 0.05) {
    std::printf("pose (%.2f, %.2f) is inside a wall — pick another spot\n",
                x, y);
    return 1;
  }

  // The maze as ASCII art with the drone marked.
  map::RasterizeOptions opt;
  opt.resolution = 0.1;  // coarse for terminal width
  map::OccupancyGrid coarse = map::rasterize(maze, opt);
  const map::CellIndex drone_cell = coarse.world_to_cell(pose.position);
  std::string art = map::to_ascii(coarse);
  // Mark the drone: row r from the top corresponds to y index
  // (height-1-r); columns map 1:1 plus the newline per row.
  const int rows = coarse.height();
  const int row_from_top = rows - 1 - drone_cell.y;
  const std::size_t pos =
      static_cast<std::size_t>(row_from_top) *
          (static_cast<std::size_t>(coarse.width()) + 1) +
      static_cast<std::size_t>(drone_cell.x);
  if (pos < art.size()) art[pos] = 'D';
  std::printf("drone maze (0.1 m cells, D = drone at %.2f, %.2f, %.0f "
              "deg):\n%s\n",
              x, y, rad_to_deg(yaw), art.c_str());

  // Both sensors of the paper's deck.
  sensor::TofSensorConfig front;
  sensor::TofSensorConfig rear;
  rear.sensor_id = 1;
  rear.mount = Pose2{-0.02, 0.0, kPi};
  const sensor::MultizoneToF front_tof(front);
  const sensor::MultizoneToF rear_tof(rear);

  const sensor::TofFrame f_front = front_tof.measure_ideal(maze, pose, 0.0);
  const sensor::TofFrame f_rear = rear_tof.measure_ideal(maze, pose, 0.0);
  print_frame(f_front, "front sensor");
  std::printf("\n");
  print_frame(f_rear, "rear sensor");

  // The 2D beams MCL actually consumes.
  std::printf("\nextracted beams (central rows, body frame):\n");
  for (const sensor::TofSensorConfig* cfg : {&front, &rear}) {
    const auto& frame = cfg->sensor_id == 0 ? f_front : f_rear;
    const auto beams = sensor::extract_beams(frame, *cfg);
    std::printf("  sensor %d: %zu beams\n", cfg->sensor_id, beams.size());
    for (const sensor::Beam& b : beams) {
      std::printf("    az=%6.1f deg  range=%5.2f m  endpoint=(%+.2f, %+.2f)\n",
                  rad_to_deg(b.azimuth_body), b.range_m, b.endpoint_body.x,
                  b.endpoint_body.y);
    }
  }
  std::printf(
      "\nnote how few beams carry the localization: this is the paper's\n"
      "low element-count premise — 16–32 numbers per update instead of a\n"
      "LiDAR scan.\n");
  return 0;
}
