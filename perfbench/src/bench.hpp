#pragma once
// Shared types of the benchmark program: options, checks, outcome, and
// the data the workloads and the phase probe exchange.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/localizer.hpp"
#include "eval/campaign.hpp"
#include "metrics.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = tofmcl::core;
namespace eval = tofmcl::eval;
namespace sensor = tofmcl::sensor;
namespace sim = tofmcl::sim;
using tofmcl::angle_dist;
using tofmcl::Pose2;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  /// Accuracy bounds (per workload, from perfbench/config.json).
  double ate_max = 1.0;
  double success_min = 0.0;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Outcome {
  explicit Outcome(bool trace)
      : traced(trace),
        metrics(trace ? per_layer_catalog() : end_to_end_catalog()) {}
  bool traced;
  MetricSink metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Threads the workload runs, counting the main thread.
  std::size_t threads = 1;
  std::string workers;
  /// Human-readable report lines (host Table I / Fig 10, notes).
  std::vector<std::string> notes;

  void check(std::string name, bool ok, std::string detail = {}) {
    checks.push_back({std::move(name), ok, std::move(detail)});
  }
};

/// Span names of the traced run (index = Span::name).
enum SpanName : std::uint32_t {
  kSpanWorkload,
  kSpanFlight,
  kSpanOpen,
  kSpanOnFrames,
  kSpanGeneration,
  kSpanPush,
  kSpanPump,
  kSpanEvictIdle,
  kSpanStorePut,
  kSpanStoreTake,
};
inline std::vector<std::string> span_names() {
  return {"workload", "flight",     "open",       "on_frames", "generation",
          "push",     "pump",       "evict_idle", "store_put", "store_take"};
}

/// Values of the e2e_loop_metrics() and wall_loop_metrics() of one replay
/// loop, by name.
using LoopFigures = std::map<std::string, double>;

/// Reports a loop's figures. Untraced run: the end-to-end loop metrics,
/// and the wall-clock figures as a note. Traced run, which measured an
/// untraced loop `plain` and a traced loop `traced`: the wall-clock
/// figures of `plain`, and overhead.<name> = traced / plain - 1 of all.
void set_loop_metrics(const LoopFigures& plain, const LoopFigures* traced,
                      Outcome& out);

double process_cpu_s();

/// Set-up cost over repeated set-ups: setup_s (untraced runs) is the
/// median process CPU time, all threads; setup_wall_s (traced runs) the
/// median wall time.
class Setup {
 public:
  /// Times one set-up: the scope of this object.
  class Rep {
   public:
    explicit Rep(Setup& setup)
        : setup_(setup), wall0_(Clock::now()), cpu0_(process_cpu_s()) {}
    ~Rep() {
      setup_.cpu_s_.push_back(process_cpu_s() - cpu0_);
      setup_.wall_s_.push_back(seconds_since(wall0_));
    }
    Rep(const Rep&) = delete;
    Rep& operator=(const Rep&) = delete;

   private:
    Setup& setup_;
    Clock::time_point wall0_;
    double cpu0_;
  };

  void report(Outcome& out) const;

 private:
  std::vector<double> cpu_s_, wall_s_;
};

/// Nearest-rank percentiles of one timing, microseconds.
struct Timing {
  double p50 = 0.0, p90 = 0.0, p99 = 0.0;
};
/// Percentiles of `us`; notes the sample count with the median and the
/// highest percentile that has ten samples beyond it, and fails a check
/// when p90 or p99 lacks them.
Timing timing(std::vector<double> us, const std::string& what, Outcome& out);

/// Per-layer self-time shares (self time / workload span) and trace
/// bookkeeping from a traced loop.
void set_trace_metrics(const Tracer& tracer, double loop_wall_s,
                       Outcome& out);

inline bool finite_pose(const Pose2& p) {
  return std::isfinite(p.x()) && std::isfinite(p.y()) &&
         std::isfinite(p.yaw);
}

/// One frame batch of a recorded flight, ready to replay: the odometry
/// samples to feed before it, its frames, and the ground truth at its
/// capture time.
struct Batch {
  std::size_t odom_end = 0;  ///< Feed odometry[0, odom_end) before it.
  Pose2 odometry{};          ///< Last odometry sample fed before it.
  std::vector<sensor::TofFrame> frames;
  Pose2 truth{};
  double stamp = 0.0;
};

struct Flight {
  const sim::Sequence* leg = nullptr;
  std::vector<Batch> batches;
};

/// Groups a leg's frames by capture time in the order replay_leg feeds
/// them (each batch after the first odometry sample at or past it).
std::vector<Batch> batches_of(const sim::Sequence& leg);

/// The onboard_global inputs: the large maze, the standard flight plans
/// with four data seeds each, and the shared scoring context.
struct OnboardData {
  std::vector<eval::ReplaySource> sources;
  std::vector<Flight> flights;
  std::shared_ptr<const core::ScoringContext> ctx;
  double export_s = 0.0;
  double context_s = 0.0;
};
OnboardData build_onboard(std::uint64_t seed);
/// Filter seed of flight f in pass p (pass 0 flight 0 is the probe's).
std::uint64_t onboard_filter_seed(std::uint64_t seed, std::size_t pass,
                                  std::size_t flight);
inline constexpr std::size_t kOnboardParticles = 4096;
/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupReps = 7;

/// Host Table I phase probe: replays one recorded flight through a serial
/// ParticleFilter and through a Localizer on the same inputs.
struct ProbeResult {
  std::size_t particles = 0;
  bool adaptive = false;
  double motion_obs_ns = 0, motion_ns = 0, resample_ns = 0, pose_ns = 0,
         adapt_ns = 0;                   ///< Median per call, per particle.
  double gated_beam_frac = 0;
  double particle_beams_per_s = 0;
  double filter_us_p50 = 0;     ///< Median serial correction (all phases).
  double extract_us_p50 = 0;    ///< Median extraction per batch.
  double serial_correction_s = 0;   ///< Sum over corrections (+extraction).
  double localizer_correction_s = 0;  ///< Same corrections via Localizer.
  double localizer_corrected_us_p50 = 0;
  double localizer_gated_us_p50 = 0;
  std::size_t corrections = 0;
  bool matches_localizer = false;
};
/// The flight a probe replays and the scoring context it runs on (whose
/// configuration it uses, particle count aside).
struct ProbeFlight {
  const sim::Sequence* leg = nullptr;
  const std::vector<Batch>* batches = nullptr;
  std::shared_ptr<const core::ScoringContext> ctx;
};
struct ProbeSpec {
  std::size_t particles = 0;
  /// Uniform init (onboard_global); otherwise tracking init at the truth.
  bool global = false;
  /// > 0 runs the comparison Localizer on a pool of this many workers,
  /// else on a SerialExecutor.
  std::size_t pool_workers = 0;
};
ProbeResult run_probe(const ProbeFlight& flight, std::uint64_t seed,
                      const ProbeSpec& spec);
/// The first onboard_global flight.
ProbeFlight onboard_probe_flight(const OnboardData& data);
/// Appends host Table I / Fig 10 next to the GAP9 model to `out.notes`.
/// `flight` names the probed flight.
void report_probe(const ProbeResult& p, const char* flight,
                  std::size_t pool_threads, Outcome& out);

/// Per-layer metrics every traced workload reports from the probes.
void set_probe_metrics(const ProbeResult& p4096, const ProbeResult& p128,
                       std::size_t pool_threads, Outcome& out);

/// Median extract_beams time per batch and mean beams per batch over the
/// given flights' frames.
struct ExtractStats {
  double us_per_batch = 0.0;
  double beams_per_batch = 0.0;
};
ExtractStats time_extraction(const std::vector<const std::vector<Batch>*>& flights,
                             const core::LocalizerConfig& config);

double peak_rss_mib();

void run_onboard(const Options& opt, Outcome& out);
void run_serving(const Options& opt, bool churn, Outcome& out);

}  // namespace perfbench
