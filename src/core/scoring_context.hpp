#pragma once
/// \file scoring_context.hpp
/// \brief The immutable, shareable half of the Localizer split.
///
/// Everything a correction READS but never writes — distance maps,
/// likelihood LUT, free-space support, beam geometry, the resolved
/// configuration, and the particle arena the map's sessions allocate from
/// — is bundled into one ScoringContext, built once per (map, scoring
/// parameters) and pointer-shared by every session localizing on that
/// map. The mutable counterpart is FilterState (filter_state.hpp): a few
/// kilobytes per session instead of the megabytes the context holds.
///
/// Immutability is a checked invariant, not a convention: ScoringContext
/// exposes only const member functions, and the `context-immutable` lint
/// rule rejects any non-const member (or mutable field) added outside the
/// builder — a context is shared across threads without locks precisely
/// because nothing can write to it after build_scoring_context returns.
///
/// Sessions differ from each other only in SessionKnobs (seed, particle
/// budget) — the two fields deliberately EXCLUDED from
/// scoring_fingerprint(), so the serving layer can key its context cache
/// on (map, fingerprint) and share one context across thousands of
/// sessions that differ only in those knobs.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/geometry.hpp"
#include "core/likelihood.hpp"
#include "core/mcl_config.hpp"
#include "core/particle_arena.hpp"
#include "map/distance_map.hpp"
#include "map/occupancy_grid.hpp"
#include "sensor/beam_model.hpp"
#include "sensor/tof_sensor.hpp"

namespace tofmcl::core {

struct LocalizerConfig {
  MclConfig mcl;
  Precision precision = Precision::kFp32;
  /// Zone→beam extraction settings shared by all sensors.
  sensor::BeamExtractionConfig extraction;
  /// Mounted sensors; frames are matched by sensor_id. Defaults to the
  /// paper's deck (front id 0, rear id 1) when left empty.
  std::vector<sensor::TofSensorConfig> sensors;
};

/// Read-only per-map state shared by every localizer on that map: the
/// free-space support, the distance field(s) and the likelihood LUT. Built
/// once per (grid, MCL parameters) and handed out as shared_ptr-to-const;
/// every ScoringContext on the map shares it.
struct MapResources {
  std::vector<Vec2> free_cells;
  double cell_jitter = 0.0;
  double rmax = 0.0;
  std::optional<map::DistanceMap> float_map;
  std::optional<map::QuantizedDistanceMap> quantized_map;
  /// The quantized maps' LUT, built for lut_params. It is the only table
  /// a *qm filter scores with: a context whose (sigma_obs, z_hit, z_rand)
  /// differ from lut_params is rejected, not given a private table.
  std::optional<LikelihoodLut> lut;
  BeamModelParams lut_params{};
};

/// Builds the resources needed by `precisions` from one occupancy grid:
/// the float EDT iff kFp32 is requested, the quantized EDT (plus LUT) iff
/// a *qm precision is requested. `mcl` supplies rmax and the beam-model
/// parameters baked into the LUT.
std::shared_ptr<const MapResources> build_map_resources(
    const map::OccupancyGrid& grid, const MclConfig& mcl,
    std::span<const Precision> precisions);

/// The paper's sensor deck: a forward-facing (id 0) and a backward-facing
/// (id 1) VL53L5CX.
std::vector<sensor::TofSensorConfig> default_sensor_deck();

/// Immutable per-map scoring state: map resources + resolved configuration
/// + the arena sessions lease particle blocks from. Built by
/// build_scoring_context, shared as shared_ptr-to-const, never mutated —
/// see the file comment and the `context-immutable` lint rule.
///
/// A context is only built on a matching map and LUT: the constructor
/// checks the resources against the config once, so a Localizer on the
/// context neither re-checks them nor falls back to a private table.
class ScoringContext {
 public:
  /// Throws PreconditionError unless the map has free cells,
  /// maps->rmax == config.mcl.rmax, the EDT for config.precision is
  /// present, and for the *qm precisions the LUT exists and was built for
  /// the config's (sigma_obs, z_hit, z_rand); z_short / lambda_short may
  /// differ, because the table covers hit + rand only. Then defaults an
  /// empty sensor deck. Called by build_scoring_context.
  ScoringContext(std::shared_ptr<const MapResources> maps,
                 LocalizerConfig config, std::shared_ptr<ParticleArena> arena);

  const MapResources& maps() const { return *maps_; }
  /// Resolved configuration (sensors defaulted, ready for any session).
  const LocalizerConfig& config() const { return config_; }
  /// The per-map particle arena. The arena itself is internally
  /// synchronized; handing out a non-const pool from a const context is
  /// the same distinction a const std::shared_ptr makes.
  const std::shared_ptr<ParticleArena>& arena() const { return arena_; }

 private:
  std::shared_ptr<const MapResources> maps_;
  LocalizerConfig config_;
  std::shared_ptr<ParticleArena> arena_;
};

/// The per-session degrees of freedom: everything else a session runs
/// with comes from its shared ScoringContext.
struct SessionKnobs {
  std::uint64_t seed = 1;
  /// Particle budget override (≤ the context's num_particles makes the
  /// arena classes line up; any positive count is accepted).
  std::optional<std::size_t> num_particles;
};

/// Builds a context from prebuilt map resources with a fresh particle
/// arena. Throws PreconditionError when the resources were not built for
/// `config` (see the ScoringContext constructor).
std::shared_ptr<const ScoringContext> build_scoring_context(
    std::shared_ptr<const MapResources> maps, LocalizerConfig config);

/// Convenience: builds the map resources for config.precision first.
std::shared_ptr<const ScoringContext> build_scoring_context(
    const map::OccupancyGrid& grid, LocalizerConfig config);

/// Deterministic key of every scoring-relevant configuration field —
/// all of LocalizerConfig EXCEPT the SessionKnobs fields (mcl.seed,
/// mcl.num_particles). Two configs with equal fingerprints can share one
/// ScoringContext; doubles are rendered as hexfloats so the key is exact.
std::string scoring_fingerprint(const LocalizerConfig& config);

}  // namespace tofmcl::core
