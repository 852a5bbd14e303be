// Tests for the batched campaign engine: matrix expansion, deterministic
// seeding, shared-resource reuse, thread-count bit-exactness (the
// engine's core guarantee), the sweep adapter's equivalence with a
// hand-rolled legacy replay, and golden digests of the CI smoke batteries.

#include "eval/campaign.hpp"

#include <gtest/gtest.h>

#include <set>

#include "eval/experiment.hpp"
#include "golden_digest.hpp"

namespace tofmcl::eval {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kSmallMaze, 1}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.mcl.num_particles = 512;
  spec.master_seed = 99;
  return spec;
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b,
                          const char* label) {
  ASSERT_EQ(a.runs.size(), b.runs.size()) << label;
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const CampaignRunResult& ra = a.runs[i];
    const CampaignRunResult& rb = b.runs[i];
    EXPECT_EQ(ra.updates_run, rb.updates_run) << label << " run " << i;
    EXPECT_EQ(ra.particle_beam_ops, rb.particle_beam_ops)
        << label << " run " << i;
    ASSERT_EQ(ra.errors.size(), rb.errors.size()) << label << " run " << i;
    for (std::size_t j = 0; j < ra.errors.size(); ++j) {
      EXPECT_EQ(ra.errors[j].t, rb.errors[j].t) << label;
      EXPECT_EQ(ra.errors[j].pos_error, rb.errors[j].pos_error) << label;
      EXPECT_EQ(ra.errors[j].yaw_error, rb.errors[j].yaw_error) << label;
    }
    EXPECT_EQ(ra.metrics.converged, rb.metrics.converged) << label;
    EXPECT_EQ(ra.metrics.ate_m, rb.metrics.ate_m) << label;
    EXPECT_EQ(ra.final_pos_error_m, rb.final_pos_error_m) << label;
  }
}

/// The engine's core guarantee: a spec gives the same bits for every
/// thread count. Runs `spec` in two fresh campaigns — one run at a time
/// (the reference) and on `threads` workers, so dataset generation fans
/// out too — expects them bit-identical and returns the reference.
CampaignResult run_thread_count_invariant(const CampaignSpec& spec,
                                          std::size_t threads,
                                          const char* label) {
  CampaignOptions serial;
  serial.threads = 1;
  CampaignResult reference = Campaign(spec).run(serial);
  CampaignOptions pooled;
  pooled.threads = threads;
  expect_bit_identical(reference, Campaign(spec).run(pooled), label);
  return reference;
}

TEST(CampaignExpansion, CoversTheFullMatrixDeterministically) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kSmallMaze, 0},
                 {CampaignWorld::kLargeMaze, 3}};
  spec.inits = {{}, {InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32, core::Precision::kFp16Qm};
  spec.sensing = {{}, {sensor::ZoneMode::k4x4, 60.0, 0.05, false}};
  spec.seeds_per_cell = 3;
  spec.particle_counts = {256, 1024};

  const std::vector<RunSpec> runs = expand_runs(spec);
  EXPECT_EQ(runs.size(), 2u * 2u * 2u * 2u * 3u * 2u);

  // Seeds are pure functions of the coordinates: expansion is repeatable,
  // distinct cells get distinct filter seeds, and runs sharing
  // (world, seed index) share their data seed — that is what lets them
  // share one generated dataset.
  const std::vector<RunSpec> again = expand_runs(spec);
  std::set<std::uint64_t> mcl_seeds;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].data_seed, again[i].data_seed);
    EXPECT_EQ(runs[i].mcl_seed, again[i].mcl_seed);
    mcl_seeds.insert(runs[i].mcl_seed);
    for (std::size_t j = 0; j < i; ++j) {
      if (runs[j].world_index == runs[i].world_index &&
          runs[j].seed_index == runs[i].seed_index) {
        EXPECT_EQ(runs[j].data_seed, runs[i].data_seed);
      }
    }
  }
  EXPECT_EQ(mcl_seeds.size(), runs.size());  // no filter-seed collisions

  // use_rear_sensor rides the sensing dimension into the run spec.
  for (const RunSpec& run : runs) {
    EXPECT_EQ(run.use_rear_sensor,
              spec.sensing[run.sensing_index].use_rear_sensor);
  }
}

TEST(CampaignExpansion, RejectsEmptyDimensions) {
  CampaignSpec spec = small_spec();
  spec.worlds.clear();
  EXPECT_THROW(expand_runs(spec), PreconditionError);
  spec = small_spec();
  spec.seeds_per_cell = 0;
  EXPECT_THROW(expand_runs(spec), PreconditionError);
  spec = small_spec();
  spec.precisions.clear();
  EXPECT_THROW(expand_runs(spec), PreconditionError);
}

TEST(Campaign, SetRunsValidatesIndices) {
  Campaign campaign(small_spec());
  RunSpec bad;
  bad.world_index = 7;
  EXPECT_THROW(campaign.set_runs({bad}), PreconditionError);
  bad.world_index = 0;
  bad.sensing_index = 3;
  EXPECT_THROW(campaign.set_runs({bad}), PreconditionError);
}

TEST(Campaign, ExecutionPolicyIsBitExact) {
  CampaignSpec spec = small_spec();
  spec.seeds_per_cell = 2;
  spec.precisions = {core::Precision::kFp32Qm, core::Precision::kFp16Qm};
  const CampaignResult a = run_thread_count_invariant(spec, 3, "maze");
  ASSERT_EQ(a.runs.size(), 4u);

  // And the runs actually did something.
  for (const CampaignRunResult& run : a.runs) {
    EXPECT_GT(run.updates_run, 10u);
    EXPECT_GT(run.errors.size(), 10u);
    EXPECT_GT(run.particle_beam_ops, 0u);
    EXPECT_EQ(run.dropped_frames, 0u);
  }
  EXPECT_GT(a.horizon_s, 5.0);
}

TEST(Campaign, TrackingInitConvergesAndKidnappedRecovers) {
  CampaignSpec spec = small_spec();
  spec.worlds = {{CampaignWorld::kSmallMaze, 0}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2},
                {InitSpec::Mode::kKidnapped, 0.2, 0.2, 2}};
  spec.mcl.num_particles = 4096;
  Campaign campaign(std::move(spec));
  const CampaignResult result = campaign.run({});
  ASSERT_EQ(result.runs.size(), 2u);

  const CampaignRunResult& tracking = result.runs[0];
  EXPECT_TRUE(tracking.metrics.converged);
  EXPECT_EQ(tracking.kidnap_time_s, 0.0);

  // The kidnapped run's trace spans both legs; convergence is judged on
  // the post-teleport segment, scenario-matrix style.
  const CampaignRunResult& kidnapped = result.runs[1];
  EXPECT_GT(kidnapped.kidnap_time_s, 1.0);
  std::vector<ErrorSample> post;
  for (const ErrorSample& e : kidnapped.errors) {
    if (e.t > kidnapped.kidnap_time_s) post.push_back(e);
  }
  ASSERT_GT(post.size(), 10u);
  const RunMetrics post_metrics = evaluate_run(post);
  EXPECT_TRUE(post_metrics.converged);
}

// The worldgen acceptance gate: a ≥3-world × {static, dynamic-obstacle}
// matrix of GENERATED environments runs deterministically — same seeds
// produce bit-identical results whatever the thread count — and every
// cell does real work.
TEST(Campaign, GeneratedWorldsMatrixIsBitExact) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kOffice, 0, 3},
                 {CampaignWorld::kWarehouse, 0, 2},
                 {CampaignWorld::kLoopCorridor, 2, 1}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  // Static axis and a dynamic-obstacle degradation axis: two crossing
  // pedestrians composited into the rendered frames of every world.
  spec.sensing = {{},
                  {sensor::ZoneMode::k8x8, 15.0, 0.01, true, 2, 1.2}};
  spec.mcl.num_particles = 512;
  spec.master_seed = 17;
  const CampaignResult a =
      run_thread_count_invariant(spec, 4, "generated worlds");
  ASSERT_EQ(a.runs.size(), 6u);  // 3 worlds × {static, dynamic}

  for (const CampaignRunResult& run : a.runs) {
    EXPECT_GT(run.updates_run, 10u);
    EXPECT_GT(run.errors.size(), 10u);
    EXPECT_EQ(run.dropped_frames, 0u);
  }
  // The dynamic cells replay DIFFERENT data than their static twins
  // (same flight, different beams): compare the first static/dynamic pair.
  EXPECT_NE(a.runs[0].metrics.ate_m, a.runs[1].metrics.ate_m);
}

// The observation-model robustness axis must be a pure ADDITION: a
// campaign whose axis holds the default entry (seed model) plus a mixture
// entry produces — in its baseline rows — exactly the bits of the same
// campaign with no axis at all. Seeds are shared across the axis by
// design (paired comparison), so this also pins the expansion order.
TEST(Campaign, ObservationAxisBaselineRowsMatchNoAxisBitwise) {
  CampaignSpec no_axis = small_spec();
  no_axis.seeds_per_cell = 2;
  Campaign reference(no_axis);
  const CampaignResult ref = reference.run({});

  CampaignSpec with_axis = small_spec();
  with_axis.seeds_per_cell = 2;
  with_axis.observation = {
      {},  // entry 0: the seed model (z_short = 0, gating off)
      {0.5, 1.0, true, 0.5, 0.85}};
  Campaign campaign(with_axis);
  const CampaignResult both = campaign.run({});
  ASSERT_EQ(both.runs.size(), 2 * ref.runs.size());

  // Expansion: observation entries are adjacent blocks inside each
  // (world, init, precision, sensing) cell, seeds innermost.
  std::vector<const CampaignRunResult*> baseline_rows;
  std::vector<const CampaignRunResult*> mixture_rows;
  for (const CampaignRunResult& run : both.runs) {
    (run.spec.observation_index == 0 ? baseline_rows : mixture_rows)
        .push_back(&run);
  }
  ASSERT_EQ(baseline_rows.size(), ref.runs.size());
  ASSERT_EQ(mixture_rows.size(), ref.runs.size());
  for (std::size_t i = 0; i < ref.runs.size(); ++i) {
    const CampaignRunResult& a = ref.runs[i];
    const CampaignRunResult& b = *baseline_rows[i];
    EXPECT_EQ(a.spec.data_seed, b.spec.data_seed) << i;
    EXPECT_EQ(a.spec.mcl_seed, b.spec.mcl_seed) << i;
    EXPECT_EQ(a.updates_run, b.updates_run) << i;
    ASSERT_EQ(a.errors.size(), b.errors.size()) << i;
    for (std::size_t j = 0; j < a.errors.size(); ++j) {
      EXPECT_EQ(a.errors[j].t, b.errors[j].t) << i;
      EXPECT_EQ(a.errors[j].pos_error, b.errors[j].pos_error) << i;
      EXPECT_EQ(a.errors[j].yaw_error, b.errors[j].yaw_error) << i;
    }
    EXPECT_EQ(a.metrics.ate_m, b.metrics.ate_m) << i;
    EXPECT_EQ(a.final_pos_error_m, b.final_pos_error_m) << i;
    // The paired mixture row replays the SAME dataset with the same
    // filter seed — different model, so (generically) different bits.
    EXPECT_EQ(mixture_rows[i]->spec.data_seed, a.spec.data_seed) << i;
    EXPECT_EQ(mixture_rows[i]->spec.mcl_seed, a.spec.mcl_seed) << i;
  }
}

// Heavy-crowd campaign cell (5 crossing pedestrians, mixture + gating
// axis): the engine's bit-exactness guarantee must hold through the new
// observation code path for every thread count. The same battery backs
// the cross-process determinism diff in CI (bench_campaign_throughput
// --smoke --crowd --trace).
TEST(Campaign, HeavyCrowdCellIsBitExactAcrossPolicies) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kWarehouse, 0, 2}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.sensing = {{sensor::ZoneMode::k8x8, 15.0, 0.01, true, 5, 1.0}};
  spec.observation = {{}, {0.5, 1.0, true, 0.5, 0.85}};
  spec.mcl.num_particles = 1024;
  spec.master_seed = 23;
  const CampaignResult a = run_thread_count_invariant(spec, 4, "heavy crowd");
  ASSERT_EQ(a.runs.size(), 2u);

  for (const CampaignRunResult& run : a.runs) {
    EXPECT_GT(run.updates_run, 10u);
    EXPECT_GT(run.errors.size(), 10u);
  }
  // Both rows replay one shared dataset; the models genuinely diverge.
  EXPECT_NE(a.runs[0].metrics.ate_m, a.runs[1].metrics.ate_m);
}

// The staleness axis must be a pure ADDITION. (a) A WorldSpec at
// mutation level kNone — whatever its (unused) mutation seed says — is
// bit-identical to a spec that predates the axis. (b) A mutated world
// actually changes the flown data: same matrix coordinates, same
// data/filter seeds, different bits.
TEST(Campaign, StaleLevelZeroIsBitIdenticalAndMutationChangesData) {
  CampaignSpec pre_axis;
  pre_axis.worlds = {{CampaignWorld::kWarehouse, 0, 2}};
  pre_axis.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  pre_axis.precisions = {core::Precision::kFp32Qm};
  pre_axis.mcl.num_particles = 512;
  pre_axis.master_seed = 31;
  Campaign reference(pre_axis);
  const CampaignResult ref = reference.run({});
  ASSERT_EQ(ref.runs.size(), 1u);

  CampaignSpec level0 = pre_axis;
  level0.worlds = {{CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                    sim::MutationLevel::kNone, 99}};
  Campaign pristine(level0);
  const CampaignResult a = pristine.run({});
  expect_bit_identical(ref, a, "level0-vs-pre-axis");

  CampaignSpec stale = pre_axis;
  stale.worlds = {{CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                   sim::MutationLevel::kHeavy, 500}};
  Campaign mutated(stale);
  const CampaignResult b = mutated.run({});
  ASSERT_EQ(b.runs.size(), 1u);
  // Identical seed derivation (mutation is not a matrix coordinate)…
  EXPECT_EQ(b.runs[0].spec.data_seed, ref.runs[0].spec.data_seed);
  EXPECT_EQ(b.runs[0].spec.mcl_seed, ref.runs[0].spec.mcl_seed);
  // …but the drone flew a different building.
  EXPECT_NE(b.runs[0].metrics.ate_m, ref.runs[0].metrics.ate_m);
}

// Cache-collision safety: two worlds differing ONLY in the staleness
// coordinates (same kind, world seed, laps) must not share a cached
// world. Runs are pinned to identical data/filter seeds via set_runs, so
// any result difference can come only from the mutation — if the world
// cache keyed on (kind, seed, laps) alone, both runs would replay the
// same dataset and produce identical bits.
TEST(Campaign, StaleWorldCacheKeysOnMutationCoordinates) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                  sim::MutationLevel::kHeavy, 500},
                 {CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                  sim::MutationLevel::kHeavy, 501}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.mcl.num_particles = 512;
  spec.master_seed = 31;
  Campaign campaign(spec);
  std::vector<RunSpec> runs = campaign.runs();
  ASSERT_EQ(runs.size(), 2u);
  runs[1].data_seed = runs[0].data_seed;
  runs[1].mcl_seed = runs[0].mcl_seed;
  campaign.set_runs(std::move(runs));
  const CampaignResult result = campaign.run({});
  ASSERT_EQ(result.runs.size(), 2u);
  ASSERT_FALSE(result.runs[0].errors.empty());
  ASSERT_FALSE(result.runs[1].errors.empty());
  EXPECT_NE(result.runs[0].errors.back().pos_error,
            result.runs[1].errors.back().pos_error);
}

// The engine's bit-exactness guarantee holds through the staleness axis
// for every thread count (world mutation happens serially in
// prepare_shared; the STALE DATASET generation fans out on the pool,
// which is what this exercises alongside the replays).
TEST(Campaign, StaleCampaignIsBitExactAcrossPolicies) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kWarehouse, 0, 2},
                 {CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                  sim::MutationLevel::kLight, 500},
                 {CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                  sim::MutationLevel::kHeavy, 500}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.observation = {{}, {0.5, 1.0, true, 0.5, 0.85}};
  spec.mcl.num_particles = 512;
  spec.master_seed = 29;
  const CampaignResult a = run_thread_count_invariant(spec, 4, "stale");
  ASSERT_EQ(a.runs.size(), 6u);  // 3 staleness × 2 models

  for (const CampaignRunResult& run : a.runs) {
    EXPECT_GT(run.updates_run, 10u);
    EXPECT_GT(run.errors.size(), 10u);
    EXPECT_EQ(run.dropped_frames, 0u);
  }
}

// WorldSpec's timeout/tour_laps knobs flow through shared-resource
// preparation: a patrol world generates a dataset past the historical
// 180 s cap.
TEST(Campaign, PatrolWorldOutlivesThe180sCap) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kOffice, 0, 3, 600.0, 2}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.mcl.num_particles = 256;
  spec.master_seed = 5;
  Campaign campaign(std::move(spec));
  const CampaignResult result = campaign.run({});
  ASSERT_EQ(result.runs.size(), 1u);
  EXPECT_GT(result.horizon_s, 180.0);
  EXPECT_GT(result.runs[0].errors.size(), 100u);
  EXPECT_GT(result.runs[0].errors.back().t, 180.0);
}

// horizon_s is the longest flight the CURRENT run list replays: a flight
// cached for a list that set_runs has since replaced must not stretch it.
TEST(Campaign, HorizonFollowsTheCurrentRunList) {
  CampaignSpec spec;
  spec.worlds = {{CampaignWorld::kSmallMaze, 1},
                 {CampaignWorld::kOffice, 0, 3, 600.0, 2}};
  spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
  spec.precisions = {core::Precision::kFp32Qm};
  spec.mcl.num_particles = 256;
  Campaign campaign(spec);
  ASSERT_EQ(campaign.runs().size(), 2u);
  const RunSpec maze_run = campaign.runs().front();
  campaign.export_replay_sources();  // caches the maze flight and the patrol
  campaign.set_runs({maze_run});
  const CampaignResult maze_only = campaign.run({});

  Campaign fresh(spec);
  fresh.set_runs({maze_run});
  const CampaignResult reference = fresh.run({});
  EXPECT_GT(reference.horizon_s, 10.0);
  EXPECT_EQ(maze_only.horizon_s, reference.horizon_s);
}

// The sweep adapter must reproduce the legacy pipeline exactly: same seed
// chain, same datasets, same per-run replay. Rebuild one cell by hand
// through the public replay_sequence API and compare metrics bitwise.
TEST(SweepAdapter, MatchesLegacyReplayBitwise) {
  SweepConfig cfg;
  cfg.variants = {Variant::kFp32Qm};
  cfg.particle_counts = {512};
  cfg.sequences = 1;
  cfg.seeds_per_sequence = 1;
  cfg.threads = 2;
  const SweepResult sweep = run_accuracy_sweep(cfg);
  ASSERT_EQ(sweep.runs.size(), 1u);

  // Legacy path, verbatim.
  const sim::EvaluationEnvironment env = sim::evaluation_environment();
  const map::OccupancyGrid grid =
      sim::rasterize_environment(env, 0.05, cfg.map_error_sigma);
  const auto plans = sim::standard_flight_plans();
  Rng seed_rng(cfg.master_seed);
  const std::uint64_t seed = seed_rng.next();
  Rng data_rng(seed);
  const sim::Sequence seq = sim::generate_sequence(
      env.world, plans[0], sim::default_generator_config(), data_rng);
  core::LocalizerConfig loc;
  loc.precision = core::Precision::kFp32Qm;
  loc.mcl = cfg.mcl;
  loc.mcl.num_particles = 512;
  loc.mcl.seed = seed ^ 0x9E3779B97F4A7C15ULL ^ (512 * 2654435761ULL) ^
                 static_cast<std::uint64_t>(Variant::kFp32Qm);
  core::SerialExecutor exec;
  const auto errors = replay_sequence(seq, grid, loc, true, exec);
  const RunMetrics legacy = evaluate_run(errors);

  EXPECT_EQ(sweep.runs[0].seed, seed);
  EXPECT_EQ(sweep.runs[0].metrics.converged, legacy.converged);
  EXPECT_EQ(sweep.runs[0].metrics.success, legacy.success);
  EXPECT_EQ(sweep.runs[0].metrics.ate_m, legacy.ate_m);
  EXPECT_EQ(sweep.runs[0].metrics.convergence_time_s,
            legacy.convergence_time_s);
}

// Golden digests of the CI campaign smokes (see golden_digest.hpp). Each
// spec and master seed is the battery `bench_campaign_throughput --smoke
// --worldgen|--crowd|--stale` builds, so a digest equals the FNV-1a of
// that bench's `--trace` file under TOFMCL_KERNEL=scalar.

/// The bench's stretch of `spec` to exactly `runs` runs at its smoke
/// particle count, executed one run at a time.
CampaignResult run_smoke(CampaignSpec spec, std::size_t runs) {
  spec.mcl.num_particles = 256;
  const std::size_t cell_runs =
      spec.worlds.size() * spec.precisions.size() * spec.sensing.size() *
      (spec.observation.empty() ? 1 : spec.observation.size());
  spec.seeds_per_cell = (runs + cell_runs - 1) / cell_runs;
  Campaign campaign(std::move(spec));
  std::vector<RunSpec> list = campaign.runs();
  list.resize(runs);
  campaign.set_runs(std::move(list));
  CampaignOptions serial;
  serial.threads = 1;
  return campaign.run(serial);
}

TEST(CampaignGolden, WorldgenSmoke) {
  golden::expect_digest("worldgen smoke", 0x7e0db798c1cefa9eull, [] {
    CampaignSpec spec;
    spec.worlds = {{CampaignWorld::kOffice, 0, 3},
                   {CampaignWorld::kWarehouse, 0, 2},
                   {CampaignWorld::kLoopCorridor, 2, 1}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.sensing = {{}, {sensor::ZoneMode::k8x8, 15.0, 0.01, true, 2, 1.2}};
    return campaign_trace(run_smoke(std::move(spec), 2));
  });
}

TEST(CampaignGolden, CrowdSmoke) {
  golden::expect_digest("crowd smoke", 0x4dec6b7292db16c9ull, [] {
    CampaignSpec spec;
    spec.worlds = {{CampaignWorld::kWarehouse, 0, 2}};
    spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.sensing = {{sensor::ZoneMode::k8x8, 15.0, 0.01, true, 5, 1.0}};
    spec.observation = {{}, {0.5, 1.0, true, 0.5, 0.85}};
    spec.master_seed = 23;
    return campaign_trace(run_smoke(std::move(spec), 2));
  });
}

TEST(CampaignGolden, StaleSmoke) {
  golden::expect_digest("stale smoke", 0x17e904af7b985423ull, [] {
    CampaignSpec spec;
    spec.worlds = {{CampaignWorld::kWarehouse, 0, 2},
                   {CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                    sim::MutationLevel::kLight, 500},
                   {CampaignWorld::kWarehouse, 0, 2, 180.0, 1,
                    sim::MutationLevel::kHeavy, 500}};
    spec.inits = {{InitSpec::Mode::kTracking, 0.2, 0.2, 2}};
    spec.precisions = {core::Precision::kFp32Qm};
    spec.observation = {{}, {0.5, 1.0, true, 0.5, 0.85}};
    spec.master_seed = 29;
    return campaign_trace(run_smoke(std::move(spec), 6));
  });
}

}  // namespace
}  // namespace tofmcl::eval
