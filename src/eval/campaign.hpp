#pragma once
/// \file campaign.hpp
/// \brief Batched multi-run evaluation campaigns.
///
/// The paper's evaluation (Figs 6–8, the ablations, the scenario matrix)
/// is a battery of INDEPENDENT localization runs over a spec matrix
///
///     map × init mode × precision × sensing degradation × seed
///
/// Running them one at a time leaves most host cores idle: a single
/// filter's four phases parallelize, but Amdahl caps the win, while the
/// campaign itself is embarrassingly parallel. The campaign engine makes
/// the batch the first-class unit of work:
///
///  * the spec matrix is expanded into an explicit run list
///    (`Campaign::runs()`), each run carrying its own deterministic
///    data/filter seeds derived from the matrix coordinates — never from
///    scheduling order;
///  * expensive read-only state is built ONCE and shared: occupancy
///    grids, float/quantized EDTs and the likelihood LUT per map
///    (core::MapResources), and each simulated dataset per
///    (map, sensing, seed) — reused by every init/precision/particle
///    variation riding on it;
///  * the run is the unit of parallelism: each run executes its filter on
///    a SerialExecutor, and CampaignOptions::threads decides whether runs
///    (and dataset generations) go one at a time or onto a ThreadPool.
///
/// Determinism guarantee: for a fixed spec, the CampaignResult is
/// bit-identical for every thread count. Run results are written to slots
/// indexed by run order; seeds are pure functions of the spec; the thread
/// count only changes wall-clock.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/localizer.hpp"
#include "eval/metrics.hpp"
#include "map/occupancy_grid.hpp"
#include "sim/dataset.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"
#include "sim/worldgen.hpp"

namespace tofmcl::eval {

/// Which evaluation world a run flies in.
enum class CampaignWorld : std::uint8_t {
  kSmallMaze,     ///< 16 m² physical drone maze only.
  kLargeMaze,     ///< 31.2 m² extended map (drone maze + artificial mazes).
  kOffice,        ///< Generated office floor plan (sim::generate_world).
  kWarehouse,     ///< Generated cluttered warehouse hall.
  kLoopCorridor,  ///< Generated ring corridor around a solid core.
};
const char* to_string(CampaignWorld world);

/// One map-dimension entry: a world plus the flight plan flown in it.
/// Maze worlds index sim::standard_flight_plans(); generated worlds index
/// their own tour plans (0 tour, 1 reverse, 2 shuttle) and use
/// `world_seed` as the procedural seed. The seed also selects the
/// artificial-maze layout of kLargeMaze, whose historical default is
/// 2023.
struct WorldSpec {
  CampaignWorld world = CampaignWorld::kLargeMaze;
  std::size_t plan = 0;  ///< Index into the world's flight-plan table.
  std::uint64_t world_seed = 2023;
  /// Dataset-generation abort limit for flights in this world. The default
  /// matches the generator's historical 180 s cap; raise it together with
  /// tour_laps for patrol missions that fly longer than that.
  double timeout_s = 180.0;
  /// Generated worlds only: plan 0 becomes an out-and-back patrol of this
  /// many laps over the tour route (WorldGenConfig::tour_laps). 1 = the
  /// classic single tour; maze worlds require 1.
  std::size_t tour_laps = 1;
  /// Staleness axis (lifelong localization): with a level other than
  /// kNone, the drone flies and senses a seeded MUTATION of the world
  /// (sim::mutate_world — moved shelving, closed doors, scattered static
  /// clutter) while the localizer keeps the PRISTINE map. kNone leaves
  /// the whole pipeline bit-identical to a spec without the axis.
  /// Composes with every world kind and with the sensing axis's dynamic
  /// obstacles.
  sim::MutationLevel mutation_level = sim::MutationLevel::kNone;
  std::uint64_t mutation_seed = 0;
};

/// One init-mode-dimension entry.
struct InitSpec {
  enum class Mode : std::uint8_t { kGlobal, kTracking, kKidnapped };
  Mode mode = Mode::kGlobal;
  /// Tracking-init cloud size.
  double sigma_xy = 0.2;
  double sigma_yaw = 0.2;
  /// Second flight plan for kidnapped runs (teleport target); the filter
  /// is NOT re-initialized between the legs — recovery must come from the
  /// Augmented-MCL injection.
  std::size_t kidnap_plan = 2;
};
const char* to_string(InitSpec::Mode mode);

/// One sensing-degradation-dimension entry. The zone mode, frame rate,
/// interference rate and dynamic-obstacle load shape the generated
/// dataset; use_rear_sensor is a replay-time property (the 1-ToF
/// ablation), so two entries differing only in it share their datasets.
struct SensingSpec {
  sensor::ZoneMode zone_mode = sensor::ZoneMode::k8x8;
  double tof_rate_hz = 15.0;
  double p_interference = 0.01;
  bool use_rear_sensor = true;
  /// Dynamic-obstacle degradation: this many people-sized cylinders
  /// patrol the flight corridors and are composited into every rendered
  /// frame, while the localization map stays static. 0 = static world.
  std::size_t obstacle_count = 0;
  double obstacle_speed_m_s = 0.8;
};

/// One observation-model-dimension entry: the beam-mixture parameters and
/// novelty gating applied at REPLAY time (datasets are untouched, so every
/// entry rides on the same generated flights — paired A/B comparisons of
/// the robustness mechanisms against identical data and filter seeds).
struct ObservationSpec {
  double z_short = 0.0;       ///< Short-return mixture weight.
  double lambda_short = 1.0;  ///< Short-return decay rate (1/m).
  bool novelty_gating = false;
  double novelty_margin_m = 0.5;
  double novelty_min_concentration = 0.85;
};

/// The campaign matrix. Every combination of the dimensions (times every
/// particle count) becomes one run.
struct CampaignSpec {
  std::vector<WorldSpec> worlds{{}};
  std::vector<InitSpec> inits{{}};
  std::vector<core::Precision> precisions{core::Precision::kFp32};
  std::vector<SensingSpec> sensing{{}};
  /// Observation-model robustness axis. EMPTY (the default) means "no
  /// axis": runs use `mcl`'s own mixture/gating settings untouched, and
  /// the expanded run list is identical to the pre-axis engine.
  std::vector<ObservationSpec> observation;
  std::size_t seeds_per_cell = 1;
  /// Particle counts swept per cell; empty means {mcl.num_particles}.
  std::vector<std::size_t> particle_counts;
  /// Base MCL parameters; num_particles and seed are overridden per run.
  core::MclConfig mcl;
  double map_resolution = 0.05;
  /// Map-acquisition error (m) used when rasterizing the localization map.
  double map_error_sigma = 0.01;
  /// Master seed; all per-run seeds derive from it and the matrix
  /// coordinates.
  std::uint64_t master_seed = 2023;
};

/// One fully-resolved run. Produced by the matrix expansion, or built by
/// hand for non-cross-product batteries (Campaign::set_runs) — the sweep
/// behind Figs 6/7 does the latter since its variant list pairs precision
/// and sensor count.
struct RunSpec {
  std::size_t world_index = 0;    ///< Into CampaignSpec::worlds.
  std::size_t sensing_index = 0;  ///< Into CampaignSpec::sensing.
  /// Into CampaignSpec::observation; 0 with an empty axis (mcl settings
  /// apply verbatim). Deliberately NOT mixed into the seed derivation:
  /// entries differing only here replay identical data with identical
  /// filter RNG — the paired-comparison design of the robustness axis.
  std::size_t observation_index = 0;
  std::size_t seed_index = 0;     ///< 0 .. seeds_per_cell-1.
  InitSpec init;
  core::Precision precision = core::Precision::kFp32;
  std::size_t num_particles = 4096;
  bool use_rear_sensor = true;
  /// Seed of the dataset this run replays. Runs with equal
  /// (world_index, generation parameters, data_seed, kidnap chain) share
  /// one generated dataset.
  std::uint64_t data_seed = 0;
  /// Seed of the run's filter RNG.
  std::uint64_t mcl_seed = 0;
};

/// Outcome of one run.
struct CampaignRunResult {
  RunSpec spec;
  RunMetrics metrics;
  /// Error trace at every correction (frame timestamps; kidnapped runs
  /// offset leg 2 by leg 1's duration so the trace is contiguous).
  std::vector<ErrorSample> errors;
  std::size_t updates_run = 0;
  std::size_t dropped_frames = 0;
  /// Σ over corrections of particles × beams — the observation-phase work.
  std::uint64_t particle_beam_ops = 0;
  /// Teleport instant of a kidnapped run (0 otherwise).
  double kidnap_time_s = 0.0;
  double final_pos_error_m = 0.0;
};

struct CampaignResult {
  std::vector<CampaignRunResult> runs;  ///< In Campaign::runs() order.
  /// Longest total flight duration among the datasets the run list
  /// replays (for convergence curves).
  double horizon_s = 0.0;
  /// Wall-clock split: shared-resource preparation vs run execution.
  double prepare_seconds = 0.0;
  double execute_seconds = 0.0;
};

/// How a campaign executes. The thread count is the only policy, and
/// results are bit-identical for every value.
struct CampaignOptions {
  /// 1 runs one run at a time on the calling thread: the reference
  /// schedule. Any other value submits each run to a ThreadPool of this
  /// many workers (0 = hardware concurrency). Dataset generation follows
  /// the same rule.
  std::size_t threads = 0;
};

/// One replayable flight bundle exported for the serving layer and its
/// benches: the map's shared resources (pointer-identical across sources
/// on the same world build), the sensor deck the frames were rendered
/// with, the recorded legs and the leg-1 start pose. Produced by
/// Campaign::export_replay_sources, deduplicated by dataset in run order.
struct ReplaySource {
  /// Serving map key: sources sharing it share `maps` (and a serving
  /// layer should open their sessions on one map definition).
  std::string map_key;
  /// Unique dataset name (map key + data seed).
  std::string name;
  std::size_t world_index = 0;
  std::shared_ptr<const core::MapResources> maps;
  /// The deck the frames were rendered with — sessions must replay with
  /// the same sensor configuration.
  sensor::TofSensorConfig front_tof;
  sensor::TofSensorConfig rear_tof;
  std::vector<sim::Sequence> legs;  ///< 1 leg, or 2 for kidnap datasets.
  Pose2 start_pose{};  ///< Leg-1 ground truth at t=0 (tracking init).
};

/// A campaign: spec + expanded run list + cached shared resources.
/// run() may be called repeatedly (e.g. once per thread count);
/// shared resources are built on first use and reused.
class Campaign {
 public:
  explicit Campaign(CampaignSpec spec);

  const CampaignSpec& spec() const { return spec_; }
  const std::vector<RunSpec>& runs() const { return runs_; }
  /// Replaces the expanded run list with a custom battery. Index fields
  /// must reference the spec's worlds/sensing tables; seeds are taken as
  /// given (callers own their determinism story).
  void set_runs(std::vector<RunSpec> runs);

  CampaignResult run(const CampaignOptions& options = {});

  /// Builds the campaign's shared resources (worlds, maps, datasets) and
  /// exports every unique dataset as a ReplaySource — the serving layer's
  /// input format. Sequences are copied so the sources outlive the
  /// campaign; MapResources are shared by pointer. Order follows the run
  /// list (first run referencing a dataset wins).
  std::vector<ReplaySource> export_replay_sources(
      const CampaignOptions& options = {});

 private:
  struct World {
    sim::EvaluationEnvironment env;  ///< Pristine: the localizer's map.
    map::OccupancyGrid grid;
    std::shared_ptr<const core::MapResources> maps;
    /// The flight-plan table WorldSpec::plan indexes: the six standard
    /// maze flights, or a generated world's tour plans.
    std::vector<sim::FlightPlan> plans;
    /// Stale-map worlds only: the mutated environment the drone actually
    /// flies and senses. Empty at mutation level kNone, so the pristine
    /// path stays bit-identical to the pre-axis engine.
    std::optional<sim::EvaluationEnvironment> stale_env;
    /// The segment world datasets are generated against.
    const map::World& flight_world() const {
      return stale_env ? stale_env->world : env.world;
    }
  };
  /// Grids/EDTs/LUTs depend on the environment only, which is determined
  /// by (kind, procedural seed) — the flight plan matters to datasets,
  /// not maps.
  struct WorldKey {
    CampaignWorld kind;
    std::uint64_t seed;
    /// Patrol laps change the plan table (not the geometry), so they are
    /// part of the world identity. A spec mixing laps variants of one
    /// world therefore rebuilds its grid/EDT/LUT — accepted: the
    /// tour-vs-patrol battery is rare, and keying maps and plan tables
    /// separately is not worth the second cache.
    std::size_t laps;
    /// Staleness identity: two specs differing only in mutation share
    /// NOTHING here (the pristine grid/EDT/LUT rebuild is accepted — a
    /// split pristine/stale cache is not worth the collision surface;
    /// datasets are keyed by world INDEX, so they can never leak across
    /// mutation variants either).
    std::uint8_t mutation_level;
    std::uint64_t mutation_seed;
    bool operator<(const WorldKey& other) const {
      return std::tie(kind, seed, laps, mutation_level, mutation_seed) <
             std::tie(other.kind, other.seed, other.laps,
                      other.mutation_level, other.mutation_seed);
    }
  };
  struct DatasetKey {
    std::size_t world_index;
    std::uint64_t data_seed;
    std::uint8_t zone_mode;
    std::uint64_t rate_bits;
    std::uint64_t interference_bits;
    std::size_t obstacle_count;
    std::uint64_t obstacle_speed_bits;
    std::optional<std::size_t> kidnap_plan;
    bool operator<(const DatasetKey& other) const;
  };
  struct Dataset {
    std::vector<sim::Sequence> legs;  ///< 1 leg, or 2 for kidnapped runs.
  };

  static DatasetKey dataset_key(const RunSpec& run,
                                const SensingSpec& sensing);
  static WorldKey world_key(const WorldSpec& ws);
  sim::SequenceGeneratorConfig generator_for(const SensingSpec& s) const;
  void prepare_shared(const CampaignOptions& options);
  CampaignRunResult execute_run(const RunSpec& run) const;

  /// One shared ScoringContext per (map resources, scoring fingerprint):
  /// every run differing only in seed/particle count leases its particle
  /// blocks from the same arena, so a batch's sequential runs on one pool
  /// worker recycle blocks instead of reallocating. Guarded by
  /// ctx_mutex_ (execute_run is const and fans out over the pool).
  std::shared_ptr<const core::ScoringContext> context_for(
      const std::shared_ptr<const core::MapResources>& maps,
      const core::LocalizerConfig& config) const;

  CampaignSpec spec_;
  std::vector<RunSpec> runs_;
  /// Keyed by world identity, not WorldSpec index, so e.g. a six-plan
  /// sweep over the large maze builds one EDT set, not six.
  std::map<WorldKey, World> worlds_;
  std::map<DatasetKey, Dataset> datasets_;
  mutable std::mutex ctx_mutex_;
  mutable std::map<std::pair<const void*, std::string>,
                   std::shared_ptr<const core::ScoringContext>>
      ctx_cache_;
};

/// Deterministic seed derivation used by the matrix expansion: a pure
/// function of the coordinates, so scheduling can never perturb it.
std::uint64_t campaign_mix(std::uint64_t a, std::uint64_t b);

/// Expands the spec matrix into the canonical run list (worlds outermost,
/// then inits, precisions, sensing, observation entries, seeds, particle
/// counts innermost). With an empty observation axis the list — including
/// every derived seed — is identical to the pre-axis engine's.
std::vector<RunSpec> expand_runs(const CampaignSpec& spec);

/// Hexfloat dump of a campaign result: per run, one line of indices,
/// seeds, work counters, ATE and final error, then one line per error
/// sample. The same battery must dump byte-identically in any process;
/// `bench_campaign_throughput --trace` writes it and the golden campaign
/// digests hash it.
std::string campaign_trace(const CampaignResult& result);

/// Replays one recorded leg through an already-initialized localizer:
/// frames are grouped by capture timestamp, rear frames dropped for 1-ToF
/// runs, and an error sample recorded (timestamp offset by `t_offset`) at
/// every correction that yields a valid estimate, with observation-phase
/// work accumulated into `out.particle_beam_ops`. The single source of
/// truth for replay semantics — both the campaign engine and
/// replay_sequence() run through it.
void replay_leg(core::Localizer& localizer, const sim::Sequence& seq,
                double t_offset, bool use_rear_sensor,
                CampaignRunResult& out);

}  // namespace tofmcl::eval
