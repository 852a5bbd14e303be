// Tests for zone→beam extraction: central-row selection, slant correction,
// error-flag filtering and body-frame end points.

#include "sensor/beam_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/angles.hpp"

namespace tofmcl::sensor {
namespace {

TofSensorConfig front_config() {
  TofSensorConfig cfg;
  cfg.mount = Pose2{0.02, 0.0, 0.0};
  return cfg;
}

TofFrame uniform_frame(const TofSensorConfig& cfg, float distance) {
  TofFrame f;
  f.mode = cfg.mode;
  const int side = zones_per_side(cfg.mode);
  f.zones.assign(static_cast<std::size_t>(side * side),
                 {distance, ZoneStatus::kValid});
  return f;
}

TEST(CentralRows, ForBothModes) {
  EXPECT_EQ(central_rows(ZoneMode::k8x8), (std::vector<int>{3, 4}));
  EXPECT_EQ(central_rows(ZoneMode::k4x4), (std::vector<int>{1, 2}));
}

TEST(ExtractBeams, DefaultUsesTwoCentralRows) {
  const TofSensorConfig cfg = front_config();
  const TofFrame f = uniform_frame(cfg, 1.0f);
  const auto beams = extract_beams(f, cfg);
  EXPECT_EQ(beams.size(), 16u);  // 2 rows × 8 columns
}

TEST(ExtractBeams, SingleRowSelection) {
  const TofSensorConfig cfg = front_config();
  const TofFrame f = uniform_frame(cfg, 1.0f);
  BeamExtractionConfig ext;
  ext.rows = {4};
  const auto beams = extract_beams(f, cfg, ext);
  EXPECT_EQ(beams.size(), 8u);
}

TEST(ExtractBeams, SlantCorrection) {
  const TofSensorConfig cfg = front_config();
  const TofFrame f = uniform_frame(cfg, 2.0f);
  BeamExtractionConfig ext;
  ext.rows = {4};  // elevation +2.8125°
  const auto beams = extract_beams(f, cfg, ext);
  const double expected = 2.0 * std::cos(deg_to_rad(2.8125));
  for (const Beam& b : beams) {
    EXPECT_NEAR(b.range_m, expected, 1e-5);
  }
}

TEST(ExtractBeams, AzimuthIncludesMountYaw) {
  TofSensorConfig cfg = front_config();
  cfg.mount = Pose2{-0.02, 0.0, kPi};  // rear sensor
  const TofFrame f = uniform_frame(cfg, 1.0f);
  BeamExtractionConfig ext;
  ext.rows = {3};
  const auto beams = extract_beams(f, cfg, ext);
  ASSERT_EQ(beams.size(), 8u);
  for (std::size_t c = 0; c < beams.size(); ++c) {
    const double expected = kPi + zone_azimuth(cfg, static_cast<int>(c));
    EXPECT_NEAR(beams[c].azimuth_body, expected, 1e-12);
  }
  // Rear beams point backwards: endpoints have negative x.
  for (const Beam& b : beams) {
    EXPECT_LT(b.endpoint_body.x, 0.0f);
  }
}

TEST(ExtractBeams, EndpointIncludesMountOffset) {
  const TofSensorConfig cfg = front_config();  // mount 2 cm forward
  const TofFrame f = uniform_frame(cfg, 1.0f);
  BeamExtractionConfig ext;
  ext.rows = {4};
  const auto beams = extract_beams(f, cfg, ext);
  // Central column beams: azimuth ±2.8°, endpoint ≈ (0.02 + r·cos(az), …).
  const Beam& b = beams[3];
  const double r = 1.0 * std::cos(deg_to_rad(2.8125));
  EXPECT_NEAR(b.endpoint_body.x,
              0.02 + r * std::cos(b.azimuth_body), 1e-5);
  EXPECT_NEAR(b.endpoint_body.y, r * std::sin(b.azimuth_body), 1e-5);
}

TEST(ExtractBeams, SkipsFlaggedZones) {
  const TofSensorConfig cfg = front_config();
  TofFrame f = uniform_frame(cfg, 1.0f);
  // Flag three zones in row 4.
  f.zones[static_cast<std::size_t>(4 * 8 + 0)].status =
      ZoneStatus::kOutOfRange;
  f.zones[static_cast<std::size_t>(4 * 8 + 3)].status =
      ZoneStatus::kInterference;
  f.zones[static_cast<std::size_t>(4 * 8 + 7)].status =
      ZoneStatus::kOutOfRange;
  BeamExtractionConfig ext;
  ext.rows = {4};
  const auto beams = extract_beams(f, cfg, ext);
  EXPECT_EQ(beams.size(), 5u);
}

TEST(ExtractBeams, RangeBandFilter) {
  const TofSensorConfig cfg = front_config();
  TofFrame f = uniform_frame(cfg, 1.0f);
  f.zones[static_cast<std::size_t>(4 * 8 + 1)].distance_m = 0.01f;  // too near
  f.zones[static_cast<std::size_t>(4 * 8 + 2)].distance_m = 5.0f;   // too far
  f.zones[static_cast<std::size_t>(4 * 8 + 3)].distance_m =
      std::numeric_limits<float>::quiet_NaN();  // valid flag, no distance
  BeamExtractionConfig ext;
  ext.rows = {4};
  const auto beams = extract_beams(f, cfg, ext);
  EXPECT_EQ(beams.size(), 5u);
}

TEST(ExtractBeams, MismatchedModeThrows) {
  TofSensorConfig cfg = front_config();
  TofFrame f = uniform_frame(cfg, 1.0f);
  cfg.mode = ZoneMode::k4x4;
  EXPECT_THROW(extract_beams(f, cfg), PreconditionError);
}

TEST(ExtractBeams, BadRowThrows) {
  const TofSensorConfig cfg = front_config();
  const TofFrame f = uniform_frame(cfg, 1.0f);
  BeamExtractionConfig ext;
  ext.rows = {8};
  EXPECT_THROW(extract_beams(f, cfg, ext), PreconditionError);
}

TEST(ExtractBeams, EndpointConsistentWithRangeAndAzimuth) {
  // endpoint - mount position must have norm == range.
  const TofSensorConfig cfg = front_config();
  const TofFrame f = uniform_frame(cfg, 1.7f);
  const auto beams = extract_beams(f, cfg);
  for (const Beam& b : beams) {
    const Vec2 rel{b.endpoint_body.x - cfg.mount.position.x,
                   b.endpoint_body.y - cfg.mount.position.y};
    EXPECT_NEAR(rel.norm(), b.range_m, 1e-5);
    EXPECT_NEAR(std::atan2(rel.y, rel.x), b.azimuth_body, 1e-5);
  }
}

}  // namespace
}  // namespace tofmcl::sensor
