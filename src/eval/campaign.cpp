#include "eval/campaign.hpp"
// TOFMCL_LINT_ALLOW_FILE(wall-clock): campaign wall-time reporting
// (runtime breakdown per phase); results depend only on seeded RNG.

#include <algorithm>
#include <bit>
#include <chrono>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sim/dynamic_obstacles.hpp"
#include "sim/worldgen.hpp"

namespace tofmcl::eval {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Calls task(i) for every i in [0, count). With `threads == 1`, or a
/// single task, the calls run in order on the calling thread (the
/// reference schedule); otherwise one fork-join (`parallel_for`) on a
/// ThreadPool(threads) (0 = hardware concurrency) makes each call its own
/// task, and the calling thread runs tasks too. The campaign's one
/// serial-vs-pool decision, for dataset generation and run execution
/// alike.
template <typename Task>
void for_each_task(std::size_t count, std::size_t threads, const Task& task) {
  if (threads == 1 || count < 2) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }
  ThreadPool pool(threads);
  pool.parallel_for(count, task);
}

/// Builds the environment + flight-plan table for one world identity.
std::pair<sim::EvaluationEnvironment, std::vector<sim::FlightPlan>>
build_world(CampaignWorld kind, std::uint64_t seed, std::size_t laps) {
  switch (kind) {
    case CampaignWorld::kSmallMaze: {
      TOFMCL_EXPECTS(laps == 1, "maze worlds have no patrol plans");
      sim::EvaluationEnvironment env;
      env.world = sim::drone_maze();
      env.maze_regions.push_back({{0.0, 0.0}, {4.0, 4.0}});
      env.structured_area_m2 = sim::drone_maze_area();
      return {std::move(env), sim::standard_flight_plans()};
    }
    case CampaignWorld::kLargeMaze:
      TOFMCL_EXPECTS(laps == 1, "maze worlds have no patrol plans");
      return {sim::evaluation_environment(seed),
              sim::standard_flight_plans()};
    case CampaignWorld::kOffice:
    case CampaignWorld::kWarehouse:
    case CampaignWorld::kLoopCorridor: {
      sim::WorldGenConfig config;
      config.seed = seed;
      config.tour_laps = laps;
      const sim::GeneratedWorldKind gen_kind =
          kind == CampaignWorld::kOffice
              ? sim::GeneratedWorldKind::kOffice
              : (kind == CampaignWorld::kWarehouse
                     ? sim::GeneratedWorldKind::kWarehouse
                     : sim::GeneratedWorldKind::kLoopCorridor);
      sim::GeneratedWorld world = sim::generate_world(gen_kind, config);
      return {std::move(world.env), std::move(world.plans)};
    }
  }
  TOFMCL_EXPECTS(false, "unknown campaign world kind");
  return {};
}

}  // namespace

const char* to_string(CampaignWorld world) {
  switch (world) {
    case CampaignWorld::kSmallMaze:
      return "small_maze";
    case CampaignWorld::kLargeMaze:
      return "large_maze";
    case CampaignWorld::kOffice:
      return "office";
    case CampaignWorld::kWarehouse:
      return "warehouse";
    case CampaignWorld::kLoopCorridor:
      return "loop_corridor";
  }
  return "unknown";
}

const char* to_string(InitSpec::Mode mode) {
  switch (mode) {
    case InitSpec::Mode::kGlobal:
      return "global";
    case InitSpec::Mode::kTracking:
      return "tracking";
    case InitSpec::Mode::kKidnapped:
      return "kidnapped";
  }
  return "unknown";
}

std::uint64_t campaign_mix(std::uint64_t a, std::uint64_t b) {
  // One SplitMix64 finalization of a golden-ratio combination: a pure
  // function of (a, b) with good avalanche, so per-run seeds depend only
  // on the matrix coordinates, never on scheduling.
  SplitMix64 sm(a + 0x9E3779B97F4A7C15ULL * (b + 1));
  return sm.next();
}

std::vector<RunSpec> expand_runs(const CampaignSpec& spec) {
  TOFMCL_EXPECTS(!spec.worlds.empty(), "campaign needs at least one world");
  TOFMCL_EXPECTS(!spec.inits.empty(), "campaign needs at least one init");
  TOFMCL_EXPECTS(!spec.precisions.empty(),
                 "campaign needs at least one precision");
  TOFMCL_EXPECTS(!spec.sensing.empty(),
                 "campaign needs at least one sensing spec");
  TOFMCL_EXPECTS(spec.seeds_per_cell >= 1, "need at least one seed");
  std::vector<std::size_t> particle_counts = spec.particle_counts;
  if (particle_counts.empty()) {
    particle_counts.push_back(spec.mcl.num_particles);
  }
  // An empty observation axis expands as one pass with observation_index
  // 0; execute_run then leaves the mcl mixture settings untouched.
  const std::size_t observation_entries =
      spec.observation.empty() ? 1 : spec.observation.size();

  std::vector<RunSpec> runs;
  runs.reserve(spec.worlds.size() * spec.inits.size() *
               spec.precisions.size() * spec.sensing.size() *
               observation_entries * spec.seeds_per_cell *
               particle_counts.size());
  for (std::size_t wi = 0; wi < spec.worlds.size(); ++wi) {
    for (std::size_t ii = 0; ii < spec.inits.size(); ++ii) {
      for (std::size_t pi = 0; pi < spec.precisions.size(); ++pi) {
        for (std::size_t si = 0; si < spec.sensing.size(); ++si) {
          for (std::size_t oi = 0; oi < observation_entries; ++oi) {
            for (std::size_t ri = 0; ri < spec.seeds_per_cell; ++ri) {
              // Seeds are a pure function of the PRE-AXIS coordinates:
              // observation entries deliberately share data and filter
              // seeds so the axis compares mechanisms, not RNG draws.
              const std::uint64_t data_seed =
                  campaign_mix(campaign_mix(spec.master_seed, wi), ri);
              for (const std::size_t n : particle_counts) {
                RunSpec run;
                run.world_index = wi;
                run.sensing_index = si;
                run.observation_index = oi;
                run.seed_index = ri;
                run.init = spec.inits[ii];
                run.precision = spec.precisions[pi];
                run.num_particles = n;
                run.use_rear_sensor = spec.sensing[si].use_rear_sensor;
                run.data_seed = data_seed;
                run.mcl_seed = campaign_mix(
                    campaign_mix(
                        campaign_mix(campaign_mix(data_seed, ii),
                                     static_cast<std::uint64_t>(
                                         spec.precisions[pi])),
                        si),
                    n);
                runs.push_back(run);
              }
            }
          }
        }
      }
    }
  }
  return runs;
}

bool Campaign::DatasetKey::operator<(const DatasetKey& other) const {
  return std::tie(world_index, data_seed, zone_mode, rate_bits,
                  interference_bits, obstacle_count, obstacle_speed_bits,
                  kidnap_plan) <
         std::tie(other.world_index, other.data_seed, other.zone_mode,
                  other.rate_bits, other.interference_bits,
                  other.obstacle_count, other.obstacle_speed_bits,
                  other.kidnap_plan);
}

Campaign::DatasetKey Campaign::dataset_key(const RunSpec& run,
                                           const SensingSpec& sensing) {
  DatasetKey key;
  key.world_index = run.world_index;
  key.data_seed = run.data_seed;
  key.zone_mode = static_cast<std::uint8_t>(sensing.zone_mode);
  key.rate_bits = std::bit_cast<std::uint64_t>(sensing.tof_rate_hz);
  key.interference_bits =
      std::bit_cast<std::uint64_t>(sensing.p_interference);
  key.obstacle_count = sensing.obstacle_count;
  // A static world renders identically whatever the (unused) obstacle
  // speed says — normalize it out so such specs share one dataset, like
  // use_rear_sensor above.
  key.obstacle_speed_bits =
      sensing.obstacle_count == 0
          ? 0
          : std::bit_cast<std::uint64_t>(sensing.obstacle_speed_m_s);
  if (run.init.mode == InitSpec::Mode::kKidnapped) {
    key.kidnap_plan = run.init.kidnap_plan;
  }
  return key;
}

Campaign::WorldKey Campaign::world_key(const WorldSpec& ws) {
  // A pristine world is one identity whatever its (unused) mutation seed
  // says — normalize it out so kNone specs share their build.
  const bool stale = ws.mutation_level != sim::MutationLevel::kNone;
  return WorldKey{ws.world, ws.world_seed, ws.tour_laps,
                  static_cast<std::uint8_t>(ws.mutation_level),
                  stale ? ws.mutation_seed : 0};
}

Campaign::Campaign(CampaignSpec spec)
    : spec_(std::move(spec)), runs_(expand_runs(spec_)) {}

void Campaign::set_runs(std::vector<RunSpec> runs) {
  for (const RunSpec& run : runs) {
    TOFMCL_EXPECTS(run.world_index < spec_.worlds.size(),
                   "run references an unknown world index");
    TOFMCL_EXPECTS(run.sensing_index < spec_.sensing.size(),
                   "run references an unknown sensing index");
    TOFMCL_EXPECTS(
        run.observation_index == 0 ||
            run.observation_index < spec_.observation.size(),
        "run references an unknown observation index");
  }
  runs_ = std::move(runs);
}

sim::SequenceGeneratorConfig Campaign::generator_for(
    const SensingSpec& s) const {
  sim::SequenceGeneratorConfig gen = sim::default_generator_config();
  gen.front_tof.mode = s.zone_mode;
  gen.rear_tof.mode = s.zone_mode;
  gen.tof_rate_hz = s.tof_rate_hz;
  gen.front_tof.p_interference = s.p_interference;
  gen.rear_tof.p_interference = s.p_interference;
  return gen;
}

void Campaign::prepare_shared(const CampaignOptions& options) {
  // One pass over the run list: group the precisions each world IDENTITY
  // (kind, seed) needs — grids/EDTs/LUTs depend on the environment only,
  // so all plans over one world share one build.
  std::map<WorldKey, std::set<core::Precision>> needed;
  for (const RunSpec& run : runs_) {
    const WorldSpec& ws = spec_.worlds[run.world_index];
    TOFMCL_EXPECTS(ws.timeout_s > 0.0, "world timeout must be positive");
    needed[world_key(ws)].insert(run.precision);
  }
  for (const auto& [key, precision_set] : needed) {
    const std::vector<core::Precision> precisions(precision_set.begin(),
                                                  precision_set.end());
    if (const auto it = worlds_.find(key); it != worlds_.end()) {
      // Already built (an earlier run() call); extend the map resources
      // from the cached grid if a new precision needs a representation
      // the previous build skipped.
      const bool has_all =
          std::all_of(precisions.begin(), precisions.end(),
                      [&](core::Precision p) {
                        return p == core::Precision::kFp32
                                   ? it->second.maps->float_map.has_value()
                                   : it->second.maps->quantized_map
                                         .has_value();
                      });
      if (!has_all) {
        it->second.maps =
            core::build_map_resources(it->second.grid, spec_.mcl, precisions);
      }
      continue;
    }
    auto [env, plans] = build_world(key.kind, key.seed, key.laps);
    // The localization map is ALWAYS rasterized from the pristine
    // environment (5 cm cells, 1 cm map-acquisition error: the
    // rasterizer's defaults); staleness mutates only what the drone flies
    // through and senses below.
    map::OccupancyGrid grid = sim::rasterize_environment(env);
    auto maps = core::build_map_resources(grid, spec_.mcl, precisions);
    World world{std::move(env), std::move(grid), std::move(maps),
                std::move(plans), std::nullopt};
    if (key.mutation_level !=
        static_cast<std::uint8_t>(sim::MutationLevel::kNone)) {
      world.stale_env = sim::mutate_world(
          world.env, world.plans,
          static_cast<sim::MutationLevel>(key.mutation_level),
          key.mutation_seed);
    }
    worlds_.emplace(key, std::move(world));
  }

  // Plan indices can only be validated against each world's own table.
  for (const RunSpec& run : runs_) {
    const WorldSpec& ws = spec_.worlds[run.world_index];
    const World& world = worlds_.at(world_key(ws));
    TOFMCL_EXPECTS(ws.plan < world.plans.size(),
                   "flight plan index out of range");
    TOFMCL_EXPECTS(run.init.mode != InitSpec::Mode::kKidnapped ||
                       run.init.kidnap_plan < world.plans.size(),
                   "kidnap plan index out of range");
  }

  // Datasets: one generation per unique (world, generation params, seed,
  // kidnap chain); every init/precision/particle-count variation replays
  // the same recorded flight. Generation is deterministic per key (its
  // own Rng from data_seed), so it can fan out like the runs. Results
  // land in a local buffer and are committed to the cache only after
  // every generation succeeded — a throwing generation must not leave
  // empty datasets behind for a later run() to trip over.
  std::vector<std::pair<DatasetKey, const RunSpec*>> missing;
  std::set<DatasetKey> pending;
  for (const RunSpec& run : runs_) {
    const DatasetKey key = dataset_key(run, spec_.sensing[run.sensing_index]);
    if (datasets_.contains(key) || !pending.insert(key).second) continue;
    missing.emplace_back(key, &run);
  }
  std::vector<Dataset> generated(missing.size());
  for_each_task(missing.size(), options.threads, [&](std::size_t i) {
    const auto& [key, run] = missing[i];
    const SensingSpec& sensing = spec_.sensing[run->sensing_index];
    sim::SequenceGeneratorConfig gen = generator_for(sensing);
    const WorldSpec& ws = spec_.worlds[run->world_index];
    // Patrol missions outlive the generator's historical 180 s abort cap;
    // the world carries its own flight budget.
    gen.timeout_s = ws.timeout_s;
    const World& world = worlds_.at(world_key(ws));
    if (sensing.obstacle_count > 0) {
      gen.obstacles = sim::scatter_obstacles_seeded(
          world.plans, sensing.obstacle_count, sensing.obstacle_speed_m_s,
          run->data_seed);
    }
    Rng rng(run->data_seed);
    Dataset& ds = generated[i];
    // Stale-map runs fly and sense the mutated world; the localizer's map
    // (world.grid / world.maps, above) stays pristine.
    ds.legs.push_back(sim::generate_sequence(world.flight_world(),
                                             world.plans[ws.plan], gen, rng));
    if (key.kidnap_plan) {
      // The second leg starts elsewhere; its odometry stream is
      // self-consistent but unrelated to leg 1's end pose — a teleport.
      ds.legs.push_back(sim::generate_sequence(
          world.flight_world(), world.plans[*key.kidnap_plan], gen, rng));
    }
  });
  for (std::size_t i = 0; i < missing.size(); ++i) {
    datasets_.emplace(missing[i].first, std::move(generated[i]));
  }
}

void replay_leg(core::Localizer& loc, const sim::Sequence& seq,
                double t_offset, bool use_rear_sensor,
                CampaignRunResult& out) {
  std::size_t frame_idx = 0;
  std::vector<sensor::TofFrame> pending;
  for (const sim::StateSample& odom : seq.odometry) {
    loc.on_odometry(odom.pose);
    while (frame_idx < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const double stamp = seq.frames[frame_idx].timestamp_s;
      pending.clear();
      while (frame_idx < seq.frames.size() &&
             seq.frames[frame_idx].timestamp_s == stamp) {
        const sensor::TofFrame& frame = seq.frames[frame_idx];
        if (use_rear_sensor || frame.sensor_id == 0) {
          pending.push_back(frame);
        }
        ++frame_idx;
      }
      if (loc.on_frames(pending) && loc.estimate().valid) {
        out.particle_beam_ops +=
            static_cast<std::uint64_t>(loc.workload().particles) *
            static_cast<std::uint64_t>(loc.workload().beams);
        const Pose2 truth = sim::interpolate_pose(seq.ground_truth, stamp);
        const core::PoseEstimate& est = loc.estimate();
        out.errors.push_back(
            {t_offset + stamp,
             (est.pose.position - truth.position).norm(),
             angle_dist(est.pose.yaw, truth.yaw)});
      }
    }
  }
}

std::string campaign_trace(const CampaignResult& result) {
  std::ostringstream trace;
  trace << std::hexfloat;
  for (const CampaignRunResult& run : result.runs) {
    trace << run.spec.world_index << ' ' << run.spec.sensing_index << ' '
          << run.spec.observation_index << ' ' << run.spec.data_seed << ' '
          << run.spec.mcl_seed << ' ' << run.updates_run << ' '
          << run.particle_beam_ops << ' ' << run.metrics.ate_m << ' '
          << run.final_pos_error_m << '\n';
    for (const ErrorSample& e : run.errors) {
      trace << e.t << ' ' << e.pos_error << ' ' << e.yaw_error << '\n';
    }
  }
  return trace.str();
}

CampaignRunResult Campaign::execute_run(const RunSpec& run) const {
  const WorldSpec& ws = spec_.worlds[run.world_index];
  const World& world = worlds_.at(world_key(ws));
  const SensingSpec& sensing = spec_.sensing[run.sensing_index];
  const Dataset& dataset =
      datasets_.at(dataset_key(run, sensing));
  const sim::SequenceGeneratorConfig gen = generator_for(sensing);

  core::LocalizerConfig lc;
  lc.precision = run.precision;
  lc.mcl = spec_.mcl;
  lc.mcl.num_particles = run.num_particles;
  lc.mcl.seed = run.mcl_seed;
  // The observation-model axis is a replay-time property: it reconfigures
  // the filter, never the dataset. An empty axis leaves the spec's mcl
  // mixture/gating settings untouched.
  if (!spec_.observation.empty()) {
    const ObservationSpec& obs = spec_.observation[run.observation_index];
    lc.mcl.z_short = obs.z_short;
    lc.mcl.enable_novelty_gating = obs.novelty_gating;
  }
  lc.sensors = {gen.front_tof, gen.rear_tof};

  core::SessionKnobs knobs;
  knobs.seed = lc.mcl.seed;
  knobs.num_particles = lc.mcl.num_particles;
  core::SerialExecutor executor;
  // A context on prebuilt resources is a config copy and a few checks;
  // the EDT and LUT stay shared through world.maps.
  core::Localizer loc(core::build_scoring_context(world.maps, lc), knobs,
                      executor);
  const sim::Sequence& leg1 = dataset.legs.front();
  TOFMCL_EXPECTS(!leg1.odometry.empty(), "dataset leg has no odometry");
  loc.on_odometry(leg1.odometry.front().pose);
  if (run.init.mode == InitSpec::Mode::kTracking) {
    loc.start_at(leg1.ground_truth.front().pose, run.init.sigma_xy,
                 run.init.sigma_yaw);
  } else {
    loc.start_global();
  }

  CampaignRunResult out;
  out.spec = run;
  replay_leg(loc, leg1, 0.0, run.use_rear_sensor, out);
  if (dataset.legs.size() > 1) {
    out.kidnap_time_s = leg1.duration_s;
    replay_leg(loc, dataset.legs[1], leg1.duration_s, run.use_rear_sensor,
               out);
  }
  out.updates_run = loc.updates_run();
  out.dropped_frames = loc.dropped_frames();
  out.metrics = evaluate_run(out.errors);
  if (!out.errors.empty()) {
    out.final_pos_error_m = out.errors.back().pos_error;
  }
  return out;
}

std::vector<ReplaySource> Campaign::export_replay_sources(
    const CampaignOptions& options) {
  prepare_shared(options);
  std::vector<ReplaySource> out;
  std::set<DatasetKey> seen;
  for (const RunSpec& run : runs_) {
    const SensingSpec& sensing = spec_.sensing[run.sensing_index];
    const DatasetKey key = dataset_key(run, sensing);
    if (!seen.insert(key).second) continue;
    const WorldSpec& ws = spec_.worlds[run.world_index];
    const World& world = worlds_.at(world_key(ws));
    const Dataset& dataset = datasets_.at(key);
    const sim::SequenceGeneratorConfig gen = generator_for(sensing);
    ReplaySource src;
    src.map_key =
        std::string(to_string(ws.world)) + "/" + std::to_string(run.world_index);
    src.name = src.map_key + "/seed" + std::to_string(run.data_seed);
    src.world_index = run.world_index;
    src.maps = world.maps;
    src.front_tof = gen.front_tof;
    src.rear_tof = gen.rear_tof;
    src.legs = dataset.legs;
    const sim::Sequence& leg1 = dataset.legs.front();
    TOFMCL_EXPECTS(!leg1.ground_truth.empty(),
                   "dataset leg has no ground truth");
    src.start_pose = leg1.ground_truth.front().pose;
    out.push_back(std::move(src));
  }
  return out;
}

CampaignResult Campaign::run(const CampaignOptions& options) {
  const auto t_prepare = std::chrono::steady_clock::now();
  prepare_shared(options);
  const double prepare_s = seconds_since(t_prepare);

  CampaignResult result;
  result.runs.resize(runs_.size());
  result.prepare_seconds = prepare_s;
  // The longest flight of THIS run list: the dataset cache may still hold
  // flights of a list that set_runs has replaced.
  for (const RunSpec& run : runs_) {
    const Dataset& dataset =
        datasets_.at(dataset_key(run, spec_.sensing[run.sensing_index]));
    double total = 0.0;
    for (const sim::Sequence& leg : dataset.legs) total += leg.duration_s;
    result.horizon_s = std::max(result.horizon_s, total);
  }

  const auto t_execute = std::chrono::steady_clock::now();
  // Every run writes its own result slot, so the schedule cannot change
  // the result.
  for_each_task(runs_.size(), options.threads, [&](std::size_t i) {
    result.runs[i] = execute_run(runs_[i]);
  });
  result.execute_seconds = seconds_since(t_execute);
  return result;
}

}  // namespace tofmcl::eval
