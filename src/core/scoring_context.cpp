#include "core/scoring_context.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/error.hpp"

namespace tofmcl::core {

std::shared_ptr<const MapResources> build_map_resources(
    const map::OccupancyGrid& grid, const MclConfig& mcl,
    std::span<const Precision> precisions) {
  TOFMCL_EXPECTS(!precisions.empty(), "need at least one precision");
  auto res = std::make_shared<MapResources>();
  res->free_cells = grid.free_cell_centers();
  res->cell_jitter = grid.resolution() / 2.0;
  res->rmax = mcl.rmax;
  const bool need_float =
      std::find(precisions.begin(), precisions.end(), Precision::kFp32) !=
      precisions.end();
  const bool need_quantized =
      std::find_if(precisions.begin(), precisions.end(), [](Precision p) {
        return p == Precision::kFp32Qm || p == Precision::kFp16Qm;
      }) != precisions.end();
  if (need_float) res->float_map.emplace(grid, mcl.rmax);
  if (need_quantized) {
    res->quantized_map.emplace(grid, mcl.rmax);
    res->lut_params = beam_model_params(mcl);
    res->lut.emplace(res->quantized_map->step(), res->lut_params);
  }
  return res;
}

std::vector<sensor::TofSensorConfig> default_sensor_deck() {
  sensor::TofSensorConfig front;
  front.sensor_id = 0;
  front.mount = Pose2{0.02, 0.0, 0.0};
  sensor::TofSensorConfig rear;
  rear.sensor_id = 1;
  rear.mount = Pose2{-0.02, 0.0, kPi};
  return {front, rear};
}

ScoringContext::ScoringContext(std::shared_ptr<const MapResources> maps,
                               LocalizerConfig config,
                               std::shared_ptr<ParticleArena> arena)
    : maps_(std::move(maps)),
      config_(std::move(config)),
      arena_(std::move(arena)) {
  TOFMCL_EXPECTS(maps_ != nullptr, "scoring context needs map resources");
  TOFMCL_EXPECTS(!maps_->free_cells.empty(),
                 "map has no free cells to localize in");
  TOFMCL_EXPECTS(maps_->rmax == config_.mcl.rmax,
                 "map resources built with a different rmax");
  if (config_.precision == Precision::kFp32) {
    TOFMCL_EXPECTS(maps_->float_map.has_value(),
                   "map resources lack the float EDT");
  } else {
    TOFMCL_EXPECTS(maps_->quantized_map.has_value() && maps_->lut.has_value(),
                   "map resources lack the quantized EDT and its LUT");
    const BeamModelParams want = beam_model_params(config_.mcl);
    const BeamModelParams& have = maps_->lut_params;
    TOFMCL_EXPECTS(have.sigma_obs == want.sigma_obs &&
                       have.z_hit == want.z_hit && have.z_rand == want.z_rand,
                   "map LUT built for another (sigma_obs, z_hit, z_rand)");
  }
  if (config_.sensors.empty()) config_.sensors = default_sensor_deck();
}

std::shared_ptr<const ScoringContext> build_scoring_context(
    std::shared_ptr<const MapResources> maps, LocalizerConfig config) {
  return std::make_shared<const ScoringContext>(
      std::move(maps), std::move(config), std::make_shared<ParticleArena>());
}

std::shared_ptr<const ScoringContext> build_scoring_context(
    const map::OccupancyGrid& grid, LocalizerConfig config) {
  auto maps = build_map_resources(
      grid, config.mcl, std::span<const Precision>(&config.precision, 1));
  return build_scoring_context(std::move(maps), std::move(config));
}

namespace {

/// Exact double rendering for the fingerprint (hexfloat — the repo's
/// trace convention, so equal fingerprints mean bit-equal parameters).
void append(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a|", v);
  out += buf;
}

void append(std::string& out, std::size_t v) {
  out += std::to_string(v);
  out += '|';
}

void append(std::string& out, bool v) { out += v ? "1|" : "0|"; }

void append(std::string& out, int v) {
  out += std::to_string(v);
  out += '|';
}

}  // namespace

std::string scoring_fingerprint(const LocalizerConfig& config) {
  std::string out;
  out.reserve(512);
  const MclConfig& m = config.mcl;
  out += "mcl:";
  append(out, m.sigma_odom_xy);
  append(out, m.sigma_odom_yaw);
  append(out, m.scale_noise_with_motion);
  append(out, m.sigma_obs);
  append(out, m.z_hit);
  append(out, m.z_rand);
  append(out, m.z_short);
  append(out, m.lambda_short);
  append(out, m.enable_novelty_gating);
  append(out, m.novelty_margin_m);
  append(out, m.novelty_max_blind_updates);
  append(out, m.novelty_min_concentration);
  append(out, m.rmax);
  append(out, m.gate_dxy);
  append(out, m.gate_dtheta);
  append(out, m.resample_ess_fraction);
  append(out, m.enable_injection);
  append(out, m.injection_alpha_slow);
  append(out, m.injection_alpha_fast);
  append(out, m.injection_max_fraction);
  append(out, m.adaptive_particles);
  append(out, m.min_particles);
  append(out, m.kld_epsilon);
  append(out, m.kld_z);
  append(out, m.kld_bin_xy);
  append(out, m.kld_bin_yaw);
  append(out, m.chunks);
  append(out, static_cast<std::size_t>(m.weight_precision));
  out += "prec:";
  out += to_string(config.precision);
  out += "|extract:";
  for (const int row : config.extraction.rows) append(out, row);
  out += ';';
  append(out, config.extraction.min_range_m);
  append(out, config.extraction.max_range_m);
  out += "sensors:";
  for (const sensor::TofSensorConfig& s : config.sensors) {
    append(out, s.sensor_id);
    append(out, static_cast<std::size_t>(s.mode));
    append(out, s.mount.x());
    append(out, s.mount.y());
    append(out, s.mount.yaw);
    append(out, s.fov_rad);
    append(out, s.max_range_m);
    append(out, s.min_range_m);
    append(out, s.sigma_base_m);
    append(out, s.sigma_proportional);
    append(out, s.p_interference);
    append(out, s.grazing_limit_rad);
    append(out, s.p_grazing_dropout);
    append(out, s.flight_height_m);
    append(out, s.wall_height_m);
    out += ';';
  }
  return out;
}

}  // namespace tofmcl::core
