#include "eval/experiment.hpp"

#include "common/error.hpp"
#include "common/stats.hpp"
#include "eval/campaign.hpp"

namespace tofmcl::eval {

const char* to_string(Variant v) {
  switch (v) {
    case Variant::kFp32:
      return "fp32";
    case Variant::kFp32_1Tof:
      return "fp32_1tof";
    case Variant::kFp32Qm:
      return "fp32qm";
    case Variant::kFp16Qm:
      return "fp16qm";
  }
  return "unknown";
}

core::Precision precision_of(Variant v) {
  switch (v) {
    case Variant::kFp32:
    case Variant::kFp32_1Tof:
      return core::Precision::kFp32;
    case Variant::kFp32Qm:
      return core::Precision::kFp32Qm;
    case Variant::kFp16Qm:
      return core::Precision::kFp16Qm;
  }
  return core::Precision::kFp32;
}

bool uses_rear_sensor(Variant v) { return v != Variant::kFp32_1Tof; }

std::vector<ErrorSample> replay_sequence(const sim::Sequence& sequence,
                                         const map::OccupancyGrid& grid,
                                         const core::LocalizerConfig& config,
                                         bool use_rear_sensor,
                                         core::Executor& executor) {
  TOFMCL_EXPECTS(!sequence.odometry.empty(), "sequence has no odometry");
  core::Localizer localizer(grid, config, executor);
  localizer.on_odometry(sequence.odometry.front().pose);
  localizer.start_global();
  CampaignRunResult scratch;
  replay_leg(localizer, sequence, 0.0, use_rear_sensor, scratch);
  return std::move(scratch.errors);
}

// The sweep is a thin adapter over the campaign engine: the variant list
// is not a cross product (fp32_1tof pairs the fp32 precision with the
// rear sensor disabled), so it is expressed as an explicit run battery
// via Campaign::set_runs, with the historical seed chain preserved so
// sweep results are unchanged by the rewire. Maps/EDTs/LUTs and datasets
// are built once by the campaign and shared across all variants and
// particle counts.
SweepResult run_accuracy_sweep(const SweepConfig& config) {
  TOFMCL_EXPECTS(config.sequences >= 1 && config.sequences <= 6,
                 "sweep supports 1..6 standard sequences");
  TOFMCL_EXPECTS(config.seeds_per_sequence >= 1, "need at least one seed");

  CampaignSpec spec;
  spec.worlds.clear();
  for (std::size_t s = 0; s < config.sequences; ++s) {
    spec.worlds.push_back({CampaignWorld::kLargeMaze, s});
  }
  spec.seeds_per_cell = config.seeds_per_sequence;
  spec.mcl = config.mcl;
  spec.master_seed = config.master_seed;
  Campaign campaign(std::move(spec));

  // Explicit battery: dataset-major (sequence, repetition), then variant,
  // then particle count — the legacy job order, with the legacy seeds.
  std::vector<RunSpec> runs;
  std::vector<Variant> run_variant;
  Rng seed_rng(config.master_seed);
  for (std::size_t s = 0; s < config.sequences; ++s) {
    for (std::size_t rep = 0; rep < config.seeds_per_sequence; ++rep) {
      const std::uint64_t seed = seed_rng.next();
      for (const Variant variant : config.variants) {
        for (const std::size_t n : config.particle_counts) {
          RunSpec run;
          run.world_index = s;
          run.sensing_index = 0;
          run.seed_index = rep;
          run.precision = precision_of(variant);
          run.num_particles = n;
          run.use_rear_sensor = uses_rear_sensor(variant);
          run.data_seed = seed;
          // Filter seed derived from the data seed so repetitions differ
          // in both data noise and filter randomness, yet stay
          // reproducible.
          run.mcl_seed = seed ^ 0x9E3779B97F4A7C15ULL ^
                         (n * 2654435761ULL) ^
                         static_cast<std::uint64_t>(variant);
          runs.push_back(run);
          run_variant.push_back(variant);
        }
      }
    }
  }
  campaign.set_runs(std::move(runs));

  CampaignOptions options;
  options.threads = config.threads;
  const CampaignResult campaign_result = campaign.run(options);

  SweepResult result;
  result.horizon_s = campaign_result.horizon_s;
  result.runs.resize(campaign_result.runs.size());
  for (std::size_t i = 0; i < campaign_result.runs.size(); ++i) {
    const CampaignRunResult& run = campaign_result.runs[i];
    RunResult& out = result.runs[i];
    out.variant = run_variant[i];
    out.particles = run.spec.num_particles;
    out.sequence = run.spec.world_index;
    out.seed = run.spec.data_seed;
    out.metrics = run.metrics;
  }
  return result;
}

std::vector<CellSummary> summarize(const SweepConfig& config,
                                   const SweepResult& result) {
  std::vector<CellSummary> cells;
  for (const Variant variant : config.variants) {
    for (const std::size_t n : config.particle_counts) {
      CellSummary cell;
      cell.variant = variant;
      cell.particles = n;
      RunningStats ate;
      RunningStats conv_time;
      std::size_t successes = 0;
      for (const RunResult& run : result.runs) {
        if (run.variant != variant || run.particles != n) continue;
        ++cell.runs;
        if (run.metrics.success) ++successes;
        if (run.metrics.converged) {
          ate.add(run.metrics.ate_m);
          conv_time.add(run.metrics.convergence_time_s);
        }
      }
      if (cell.runs > 0) {
        cell.success_rate =
            static_cast<double>(successes) / static_cast<double>(cell.runs);
      }
      cell.mean_ate_m = ate.mean();
      cell.mean_convergence_s = conv_time.mean();
      cells.push_back(cell);
    }
  }
  return cells;
}

ConvergenceCurve cell_convergence_curve(const SweepResult& result,
                                        Variant variant,
                                        std::size_t particles,
                                        std::size_t bins) {
  std::vector<RunMetrics> metrics;
  for (const RunResult& run : result.runs) {
    if (run.variant == variant && run.particles == particles) {
      metrics.push_back(run.metrics);
    }
  }
  return convergence_curve(metrics, std::max(result.horizon_s, 1.0), bins);
}

}  // namespace tofmcl::eval
