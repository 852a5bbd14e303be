#pragma once
/// \file beam_model.hpp
/// \brief Conversion of multizone ToF frames into 2D beams for MCL.
///
/// The drone flies at fixed height and localizes in a 2D map, so the 8×8
/// (or 4×4) zone matrix collapses to one beam per column: we read the
/// central row(s), correct the slant range back to the horizontal plane and
/// express each return as a point in the drone body frame. Zones with
/// raised error flags are skipped (paper Section III-A2), which is exactly
/// how the observation model ignores invalid returns.
///
/// Precomputing the body-frame end point here means the per-particle work
/// in the correction step is a single 2D rigid transform per beam — the
/// optimization that makes the embedded implementation cheap.

#include <vector>

#include "common/geometry.hpp"
#include "sensor/tof_sensor.hpp"

namespace tofmcl::sensor {

/// One 2D range beam in the drone body frame.
struct Beam {
  /// Beam direction in the body frame (mount yaw + zone azimuth).
  double azimuth_body = 0.0;
  /// Horizontal range from the sensor, meters (slant-corrected).
  float range_m = 0.0f;
  /// Measurement end point in the drone body frame (includes the sensor
  /// mount offset). This is ẑ of Eq. 1 before the particle transform.
  Vec2f endpoint_body{};
};

/// Controls which zones become beams.
struct BeamExtractionConfig {
  /// Rows to read; empty selects the row just below and just above the
  /// horizon (the two central rows) — their elevation is ±fov/(2·side),
  /// under 3° for the 8×8 mode.
  std::vector<int> rows;
  /// Returns shorter than this are discarded (self-echo guard), meters.
  double min_range_m = 0.05;
  /// Returns longer than this are discarded, meters. The paper truncates
  /// the EDT at 1.5 m but feeds the full sensor range to the filter; we
  /// keep the sensor limit by default.
  double max_range_m = 4.0;
};

/// Default central rows for a mode (e.g. {3, 4} for 8×8).
std::vector<int> central_rows(ZoneMode mode);

/// Extract valid 2D beams from one frame. Invalid/flagged/out-of-band
/// zones produce no beam; a NaN distance is out of band. When both central
/// rows see the same column validly, both beams are emitted — they are
/// independent measurements of the same wall and sharpen the correction
/// slightly.
std::vector<Beam> extract_beams(const TofFrame& frame,
                                const TofSensorConfig& sensor,
                                const BeamExtractionConfig& config = {});

}  // namespace tofmcl::sensor
