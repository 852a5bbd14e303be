// tofmcl_cli — the file-based workflow a downstream user runs:
//
//   tofmcl_cli map      --out map.txt [--ascii]
//       export the evaluation environment's occupancy grid
//   tofmcl_cli generate --plan 0..5 --seed S --out seq.txt
//       simulate a flight and record the dataset (odometry, truth, frames)
//   tofmcl_cli localize --map map.txt --seq seq.txt
//                       [--particles N] [--precision fp32|fp32qm|fp16qm]
//                       [--one-sensor] [--csv trace.csv]
//       replay a recorded dataset through the localizer and print the
//       paper's metrics (convergence time, ATE, success)
//
// The three commands chain: map → generate → localize.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/table.hpp"
#include "eval/experiment.hpp"
#include "example_args.hpp"
#include "map/map_io.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"

using namespace tofmcl;

namespace {

using Options = std::map<std::string, std::string>;

constexpr const char* kUsage =
    "usage: tofmcl_cli <command> [options]\n"
    "  map       --out FILE [--ascii]\n"
    "  generate  --plan 0..5 --seed S --out FILE\n"
    "  localize  --map FILE --seq FILE [--particles N]\n"
    "            [--precision fp32|fp32qm|fp16qm] [--one-sensor]\n"
    "            [--filter-seed S] [--csv FILE]\n";

// GCC 12's -Wrestrict fires a false positive inside the inlined
// libstdc++ std::string assignment in the flag branch below (upstream
// PR 105651); scope the silence to exactly this function.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
Options parse_options(int argc, char** argv, int first) {
  Options opts;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", argv[i]);
      std::exit(2);
    }
    const std::string key = argv[i] + 2;
    if (key == "ascii" || key == "one-sensor") {
      opts[key] = "1";
    } else if (i + 1 < argc) {
      opts[key] = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for --%s\n", key.c_str());
      std::exit(2);
    }
  }
  return opts;
}
#pragma GCC diagnostic pop

std::string get(const Options& opts, const std::string& key,
                const std::string& fallback) {
  const auto it = opts.find(key);
  return it == opts.end() ? fallback : it->second;
}

int cmd_map(const Options& opts) {
  const sim::EvaluationEnvironment env = sim::evaluation_environment();
  const map::OccupancyGrid grid = sim::rasterize_environment(env);
  const std::string out = get(opts, "out", "map.txt");
  map::save_grid(grid, std::filesystem::path(out));
  std::printf("wrote %s: %dx%d cells, %.1f m^2 structured area\n",
              out.c_str(), grid.width(), grid.height(),
              env.structured_area_m2);
  if (opts.count("ascii") != 0) {
    std::printf("%s", map::to_ascii(grid).c_str());
  }
  return 0;
}

/// Option `key` as a number (whole token, see example_args.hpp).
template <typename T>
T get_number(const Options& opts, const std::string& key,
             const std::string& fallback, T min = 0) {
  return examples::parse_number<T>(get(opts, key, fallback).c_str(), kUsage,
                                   min);
}

int cmd_generate(const Options& opts) {
  const auto plan_idx = get_number<std::size_t>(opts, "plan", "0");
  const auto seed = get_number<std::uint64_t>(opts, "seed", "1");
  const std::string out = get(opts, "out", "sequence.txt");
  if (plan_idx >= 6) examples::usage_error("--plan must be 0..5", kUsage);
  const sim::EvaluationEnvironment env = sim::evaluation_environment();
  const auto plans = sim::standard_flight_plans();
  Rng rng(seed);
  const sim::Sequence seq = sim::generate_sequence(
      env.world, plans[plan_idx], sim::default_generator_config(), rng);
  save_sequence(seq, std::filesystem::path(out));
  std::printf("wrote %s: %s, %.1f s, %zu odometry samples, %zu frames\n",
              out.c_str(), seq.name.c_str(), seq.duration_s,
              seq.odometry.size(), seq.frames.size());
  return 0;
}

int cmd_localize(const Options& opts) {
  core::LocalizerConfig config;
  config.mcl.num_particles =
      get_number<std::size_t>(opts, "particles", "4096", 1);
  config.mcl.seed = get_number<std::uint64_t>(opts, "filter-seed", "1");
  const std::string map_path = get(opts, "map", "map.txt");
  const std::string seq_path = get(opts, "seq", "sequence.txt");
  const map::OccupancyGrid grid =
      map::load_grid(std::filesystem::path(map_path));
  const sim::Sequence seq =
      sim::load_sequence(std::filesystem::path(seq_path));

  const std::string precision = get(opts, "precision", "fp32qm");
  if (precision == "fp32") {
    config.precision = core::Precision::kFp32;
  } else if (precision == "fp32qm") {
    config.precision = core::Precision::kFp32Qm;
  } else if (precision == "fp16qm") {
    config.precision = core::Precision::kFp16Qm;
  } else {
    std::fprintf(stderr, "unknown precision: %s\n", precision.c_str());
    return 2;
  }
  const bool use_rear = opts.count("one-sensor") == 0;

  core::SerialExecutor executor;
  const auto errors =
      eval::replay_sequence(seq, grid, config, use_rear, executor);
  const eval::RunMetrics metrics = eval::evaluate_run(errors);

  std::printf("sequence   : %s (%.1f s)\n", seq.name.c_str(),
              seq.duration_s);
  std::printf("config     : %s, %zu particles, %s\n", precision.c_str(),
              config.mcl.num_particles,
              use_rear ? "two sensors" : "front sensor only");
  std::printf("corrections: %zu\n", errors.size());
  if (metrics.converged) {
    std::printf("converged  : %.1f s\n", metrics.convergence_time_s);
    std::printf("ATE        : %.3f m (max %.3f m)\n", metrics.ate_m,
                metrics.max_error_after_convergence_m);
    std::printf("success    : %s\n", metrics.success ? "yes" : "no");
  } else {
    std::printf("converged  : no\n");
  }

  const std::string csv = get(opts, "csv", "");
  if (!csv.empty()) {
    Table table({"t", "pos_error_m", "yaw_error_rad"});
    for (const eval::ErrorSample& e : errors) {
      table.row().cell(e.t, 3).cell(e.pos_error, 4).cell(e.yaw_error, 4)
          .commit();
    }
    table.write_csv(std::filesystem::path(csv));
    std::printf("error trace: %s\n", csv.c_str());
  }
  return metrics.success ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) examples::usage_error("missing command", kUsage);
  const std::string command = argv[1];
  try {
    const Options opts = parse_options(argc, argv, 2);
    if (command == "map") return cmd_map(opts);
    if (command == "generate") return cmd_generate(opts);
    if (command == "localize") return cmd_localize(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  examples::usage_error(("unknown command: " + command).c_str(), kUsage);
}
