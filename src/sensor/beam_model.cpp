#include "sensor/beam_model.hpp"

#include <cmath>

namespace tofmcl::sensor {

std::vector<int> central_rows(ZoneMode mode) {
  const int side = zones_per_side(mode);
  return {side / 2 - 1, side / 2};
}

std::vector<Beam> extract_beams(const TofFrame& frame,
                                const TofSensorConfig& sensor,
                                const BeamExtractionConfig& config) {
  TOFMCL_EXPECTS(frame.mode == sensor.mode,
                 "frame and sensor config zone modes differ");
  const int side = frame.side();
  const std::vector<int> rows =
      config.rows.empty() ? central_rows(frame.mode) : config.rows;

  std::vector<Beam> beams;
  beams.reserve(rows.size() * static_cast<std::size_t>(side));

  for (const int row : rows) {
    TOFMCL_EXPECTS(row >= 0 && row < side, "extraction row out of range");
    const double elevation = zone_elevation(sensor, row);
    const double cos_elev = std::cos(elevation);
    for (int col = 0; col < side; ++col) {
      const ZoneMeasurement& zone = frame.zone(row, col);
      if (!zone.valid()) continue;
      const double horizontal =
          static_cast<double>(zone.distance_m) * cos_elev;
      // Negated so that a NaN distance fails the band test too.
      if (!(horizontal >= config.min_range_m &&
            horizontal <= config.max_range_m)) {
        continue;
      }
      Beam beam;
      beam.azimuth_body = sensor.mount.yaw + zone_azimuth(sensor, col);
      beam.range_m = static_cast<float>(horizontal);
      const Vec2 endpoint =
          sensor.mount.position +
          Vec2{horizontal * std::cos(beam.azimuth_body),
               horizontal * std::sin(beam.azimuth_body)};
      beam.endpoint_body = Vec2f{static_cast<float>(endpoint.x),
                                 static_cast<float>(endpoint.y)};
      beams.push_back(beam);
    }
  }
  return beams;
}

}  // namespace tofmcl::sensor
