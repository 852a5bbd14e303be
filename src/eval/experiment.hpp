#pragma once
/// \file experiment.hpp
/// \brief Replay of recorded sequences through the localizer, and the
///        full accuracy sweep behind the paper's Figs 6, 7 and 8.
///
/// A sweep evaluates every (variant × particle count × sequence × seed)
/// combination the paper reports: variants fp32, fp32 1tof (front sensor
/// only), fp32qm and fp16qm over particle counts 64…16384 on the six
/// standard flight sequences with several noise seeds each.

#include <cstdint>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "eval/metrics.hpp"
#include "map/occupancy_grid.hpp"
#include "sim/dataset.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

namespace tofmcl::eval {

/// The paper's four evaluation configurations (Fig 6/7 legend).
enum class Variant : std::uint8_t {
  kFp32,      ///< float particles + float EDT, both sensors
  kFp32_1Tof, ///< fp32, front sensor only
  kFp32Qm,    ///< float particles + quantized EDT
  kFp16Qm,    ///< fp16 particles + quantized EDT
};
const char* to_string(Variant v);
/// Precision used by a variant's filter.
core::Precision precision_of(Variant v);
/// Whether the variant consumes the rear sensor's frames.
bool uses_rear_sensor(Variant v);

/// Replays one recorded sequence through a localizer and returns the
/// error trace at every correction step.
std::vector<ErrorSample> replay_sequence(const sim::Sequence& sequence,
                                         const map::OccupancyGrid& grid,
                                         const core::LocalizerConfig& config,
                                         bool use_rear_sensor,
                                         core::Executor& executor);

struct SweepConfig {
  std::vector<Variant> variants{Variant::kFp32, Variant::kFp32_1Tof,
                                Variant::kFp32Qm, Variant::kFp16Qm};
  std::vector<std::size_t> particle_counts{64, 256, 1024, 4096, 16384};
  /// Number of standard flight plans used (≤ 6) and seeds per plan.
  std::size_t sequences = 6;
  std::size_t seeds_per_sequence = 6;
  /// Base MCL parameters applied to every run (num_particles overridden).
  core::MclConfig mcl;
  /// Campaign thread count (CampaignOptions::threads): 1 replays one run
  /// at a time, any other value runs the replays on a pool of that many
  /// workers (0 = hardware). Results are bit-identical either way.
  std::size_t threads = 0;
  /// Master seed for the data-generation seeds.
  std::uint64_t master_seed = 2023;
};

/// One row of sweep output.
struct RunResult {
  Variant variant{};
  std::size_t particles = 0;
  std::size_t sequence = 0;
  std::uint64_t seed = 0;
  RunMetrics metrics;
};

/// Aggregate of all runs of one (variant, particle count) cell.
struct CellSummary {
  Variant variant{};
  std::size_t particles = 0;
  double mean_ate_m = 0.0;        ///< Over converged runs (paper Fig 6).
  double success_rate = 0.0;      ///< Fraction of successful runs (Fig 7).
  double mean_convergence_s = 0.0;
  std::size_t runs = 0;
};

struct SweepResult {
  std::vector<RunResult> runs;
  /// Duration of the longest sequence (for convergence curves).
  double horizon_s = 0.0;
};

/// Runs the full sweep on the campaign engine (eval/campaign.hpp): maps,
/// EDTs, likelihood LUTs and sequences are built once and shared by all
/// variants and particle counts; runs are scheduled by
/// SweepConfig::threads. Deterministic for a fixed config regardless of
/// scheduling.
SweepResult run_accuracy_sweep(const SweepConfig& config);

/// Aggregates sweep runs into per-(variant, N) cells, preserving the
/// variant/particle ordering of the config.
std::vector<CellSummary> summarize(const SweepConfig& config,
                                   const SweepResult& result);

/// Convergence curve for one (variant, N) cell of the sweep (Fig 8).
ConvergenceCurve cell_convergence_curve(const SweepResult& result,
                                        Variant variant,
                                        std::size_t particles,
                                        std::size_t bins = 60);

}  // namespace tofmcl::eval
