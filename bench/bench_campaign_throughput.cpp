// Campaign-engine throughput bench: the ROADMAP's "heavy traffic" axis.
//
// Builds a matrix campaign (small maze × plans × precisions × sensing),
// prepares the shared read-only state (grids, EDTs, LUT, datasets) once,
// then executes the SAME battery twice:
//
//   serial  — CampaignOptions::threads = 1: one run at a time on the
//             calling thread (the reference schedule)
//   batched — threads = --threads: each run one task of a fork-join
//             (ThreadPool::parallel_for)
//
// and reports runs/sec plus observation-phase particle·beam ops/sec for
// both, the speedup, and verifies the two results are BIT-IDENTICAL (the
// campaign determinism guarantee; a mismatch exits nonzero, so this
// doubles as a regression gate in CI smoke mode).
//
// Expected: on an 8-core host a 32-run campaign batches at ≥ 3× the
// serial runs/sec (runs are independent; shared state is read-only).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_args.hpp"
#include "eval/campaign.hpp"

using namespace tofmcl;

namespace {

struct Args {
  std::size_t runs = 32;
  std::size_t threads = 8;
  std::size_t particles = 1024;
  /// Generated-worlds battery (office + warehouse + loop corridor, with a
  /// dynamic-obstacle sensing axis) instead of the maze matrix.
  bool worldgen = false;
  /// Heavy-crowd battery: warehouse tour with five crossing pedestrians
  /// and an observation-model axis (seed two-term likelihood vs
  /// short-return mixture + novelty gating).
  bool crowd = false;
  /// Stale-map battery: one warehouse at pristine/light/heavy staleness
  /// (the drone flies the mutated hall, the localizer keeps the pristine
  /// map) crossed with the observation-model axis.
  bool stale = false;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&] {
      const char* flag = argv[i];
      return bench::parse_count(flag, value());
    };
    if (is("--help") || is("-h")) {
      std::printf(
          "bench_campaign_throughput — batched vs serial campaign execution\n"
          "  --runs N       campaign size (default 32)\n"
          "  --threads N    pool size for batched mode (default 8;\n"
          "                 1 = one run at a time)\n"
          "  --particles N  particles per run (default 1024)\n"
          "  --smoke        tiny sanity configuration (CI)\n"
          "  --worldgen     generated office/warehouse/loop battery with\n"
          "                 a dynamic-obstacle sensing axis\n"
          "  --crowd        heavy-crowd warehouse battery with an\n"
          "                 observation-model axis (baseline vs\n"
          "                 mixture + novelty gating)\n"
          "  --stale        stale-map warehouse battery: pristine vs\n"
          "                 light vs heavy map mutation x the\n"
          "                 observation-model axis (forces >= 6 runs)\n");
      std::exit(0);
    } else if (is("--runs")) {
      args.runs = count();
    } else if (is("--threads")) {
      args.threads = count();
    } else if (is("--particles")) {
      args.particles = count();
    } else if (is("--smoke")) {
      args.runs = 2;
      args.threads = 2;
      args.particles = 256;
    } else if (is("--worldgen")) {
      args.worldgen = true;
    } else if (is("--crowd")) {
      args.crowd = true;
    } else if (is("--stale")) {
      args.stale = true;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (args.runs == 0 || args.threads == 0 || args.particles == 0) {
    std::fprintf(stderr, "runs/threads/particles must be positive\n");
    std::exit(2);
  }
  if (args.stale && args.runs < 6) {
    // The battery is 3 staleness levels x 2 observation models; anything
    // smaller would silently drop the stale cells (--smoke included).
    args.runs = 6;
  }
  return args;
}

std::uint64_t total_ops(const eval::CampaignResult& result) {
  std::uint64_t ops = 0;
  for (const auto& run : result.runs) ops += run.particle_beam_ops;
  return ops;
}

/// Bitwise comparison of two campaign results (the determinism gate).
bool identical(const eval::CampaignResult& a, const eval::CampaignResult& b) {
  if (a.runs.size() != b.runs.size()) return false;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const auto& ra = a.runs[i];
    const auto& rb = b.runs[i];
    if (ra.updates_run != rb.updates_run ||
        ra.particle_beam_ops != rb.particle_beam_ops ||
        ra.errors.size() != rb.errors.size() ||
        ra.metrics.converged != rb.metrics.converged ||
        ra.metrics.ate_m != rb.metrics.ate_m ||
        ra.final_pos_error_m != rb.final_pos_error_m) {
      return false;
    }
    for (std::size_t j = 0; j < ra.errors.size(); ++j) {
      if (ra.errors[j].t != rb.errors[j].t ||
          ra.errors[j].pos_error != rb.errors[j].pos_error ||
          ra.errors[j].yaw_error != rb.errors[j].yaw_error) {
        return false;
      }
    }
  }
  return true;
}

void report(const char* label, const eval::CampaignResult& result,
            std::size_t runs) {
  const double t = result.execute_seconds;
  std::printf("%-26s %8.2f s   %7.2f runs/s   %9.1f Mops/s\n", label, t,
              static_cast<double>(runs) / t,
              static_cast<double>(total_ops(result)) / t / 1e6);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Default matrix: small maze over four plans × two quantized precisions
  // × two sensing modes; --worldgen swaps in the generated battery
  // (office tour + warehouse tour + loop shuttle, static vs two crossing
  // pedestrians). seeds_per_cell stretches the battery to --runs.
  eval::CampaignSpec spec;
  if (args.stale) {
    // One warehouse flown at three staleness levels — the localizer's map
    // stays pristine while the hall gets rearranged — with the paired
    // observation-model axis on top. CampaignGolden.StaleSmoke pins its
    // trace, covering mutate_world itself.
    spec.worlds = {{eval::CampaignWorld::kWarehouse, 0, 2},
                   {eval::CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                    sim::MutationLevel::kLight, 500},
                   {eval::CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                    sim::MutationLevel::kHeavy, 500}};
    spec.inits = {{eval::InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.observation = {{}, {0.5, true}};
    spec.master_seed = 29;
  } else if (args.crowd) {
    // One warehouse aisle tour under a five-pedestrian crossing crowd,
    // replayed through both observation models (paired: the axis shares
    // data/filter seeds). CampaignGolden.CrowdSmoke pins its trace.
    spec.worlds = {{eval::CampaignWorld::kWarehouse, 0, 2}};
    spec.inits = {{eval::InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.sensing = {{sensor::ZoneMode::k8x8, 15.0, 0.01, true, 5, 1.0}};
    spec.observation = {{}, {0.5, true}};
    spec.master_seed = 23;
  } else if (args.worldgen) {
    spec.worlds = {{eval::CampaignWorld::kOffice, 0, 3},
                   {eval::CampaignWorld::kWarehouse, 0, 2},
                   {eval::CampaignWorld::kLoopCorridor, 2, 1}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.sensing = {{}, {sensor::ZoneMode::k8x8, 15.0, 0.01, true, 2, 1.2}};
  } else {
    spec.worlds = {{eval::CampaignWorld::kSmallMaze, 0},
                   {eval::CampaignWorld::kSmallMaze, 1},
                   {eval::CampaignWorld::kSmallMaze, 2},
                   {eval::CampaignWorld::kSmallMaze, 4}};
    spec.precisions = {core::Precision::kFp32Qm, core::Precision::kFp16Qm};
    spec.sensing = {{}, {sensor::ZoneMode::k4x4, 60.0, 0.01, true}};
  }
  spec.mcl.num_particles = args.particles;
  const std::size_t cell_runs =
      spec.worlds.size() * spec.precisions.size() * spec.sensing.size() *
      (spec.observation.empty() ? 1 : spec.observation.size());
  spec.seeds_per_cell = (args.runs + cell_runs - 1) / cell_runs;
  eval::Campaign campaign(std::move(spec));

  std::vector<eval::RunSpec> runs = campaign.runs();
  runs.resize(args.runs);  // stretch rounds up; trim to the exact size
  campaign.set_runs(std::move(runs));

  std::fprintf(stderr,
               "campaign: %zu runs x %zu particles, %zu threads "
               "(preparing shared maps + datasets...)\n",
               args.runs, args.particles, args.threads);

  // Warm the shared caches with the serial pass so both timed executions
  // see identical prepared state.
  eval::CampaignOptions serial_opt;
  serial_opt.threads = 1;
  const eval::CampaignResult serial = campaign.run(serial_opt);
  std::fprintf(stderr, "prepare: %.2f s (amortized across all modes)\n",
               serial.prepare_seconds);

  eval::CampaignOptions batched_opt;
  batched_opt.threads = args.threads;
  const eval::CampaignResult batched = campaign.run(batched_opt);

  std::printf("\n=== Campaign throughput — %zu runs, %zu particles ===\n\n",
              args.runs, args.particles);
  report("serial (1 run at a time)", serial, args.runs);
  report("batched", batched, args.runs);

  const bool ok = identical(serial, batched);

  const double speedup = serial.execute_seconds / batched.execute_seconds;
  std::printf("\nspeedup (batched / serial): %.2fx on %zu threads\n", speedup,
              args.threads);
  std::printf("determinism: serial and batched results %s\n",
              ok ? "bit-identical" : "DIFFER (BUG)");
  return ok ? 0 : 1;
}
