// Kernel-backend benchmark: observation-sweep throughput per KernelBackend
// (scalar reference vs the AVX2 SIMD path of src/core/kernels/) and per
// precision variant (fp32qm with fp32 weights, fp16qm with fp16 weights),
// plus the motion sweep's cost per particle per backend.
//
// Self-contained (no Google Benchmark): each variant times repeated
// observation_update() calls over the evaluation grid, resetting the
// particle cloud between iterations OUTSIDE the timed region so weight
// underflow (and denormal arithmetic) cannot skew the numbers. The motion
// rows time motion_update() (a gated-out tick) the same way, over 4096
// particles and over 128 (serve_paced's filter size), both in the default
// 8 chunks, alternating the backends call by call and reporting each one's
// median call. Iteration counts auto-calibrate to a minimum timed
// duration.
//
// The committed artifact is BENCH_kernels.json (--json), which names its
// host: CPU model, logical CPUs, compiler and default backend. Threshold
// gates (exit code 1 on violation, so CI fails loudly instead of silently
// regressing):
//   * AVX2 plain-path throughput >= 2.0x scalar (when AVX2 is supported).
//   * Every SIMD variant >= 1.0x its scalar counterpart.
//   * Every SIMD motion row no slower than its scalar row.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "bench_args.hpp"
#include "core/particle_filter.hpp"
#include "map/rasterize.hpp"
#include "sim/maze.hpp"

using namespace tofmcl;
namespace kernels = tofmcl::core::kernels;

namespace {

struct Args {
  std::size_t particles = 4096;
  std::size_t beams = 16;
  double min_seconds = 0.4;  ///< Timed duration floor per variant.
  bool smoke = false;
  const char* json_path = nullptr;
};

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "bench_kernels — observation and motion sweeps per kernel backend\n"
      "  --particles N   particles per filter (default 4096)\n"
      "  --beams N       beams per observation update (default 16)\n"
      "  --min-seconds S timed duration floor per variant (default 0.4)\n"
      "  --smoke         fast CI mode (fewer particles, shorter floor)\n"
      "  --json FILE     write the report as JSON (BENCH_kernels.json)\n"
      "  --help          this message\n");
}

/// The --min-seconds value as one whole token: a finite number > 0. Any
/// other text prints usage on stderr and exits 2.
double parse_min_seconds(const char* text) {
  double seconds = 0.0;
  const char* end = text + std::strlen(text);
  const auto [last, error] = std::from_chars(text, end, seconds);
  if (error != std::errc() || last != end || !std::isfinite(seconds) ||
      !(seconds > 0.0)) {
    std::fprintf(stderr,
                 "--min-seconds expects a finite number > 0, got '%s'\n",
                 text);
    print_usage(stderr);
    std::exit(2);
  }
  return seconds;
}

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
      print_usage(stdout);
      std::exit(0);
    } else if (is("--particles")) {
      args.particles = count();
    } else if (is("--beams")) {
      args.beams = count();
    } else if (is("--min-seconds")) {
      args.min_seconds = parse_min_seconds(value());
    } else if (is("--smoke")) {
      args.smoke = true;
      args.particles = 1024;
      args.min_seconds = 0.05;
    } else if (is("--json")) {
      args.json_path = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

const map::OccupancyGrid& evaluation_grid() {
  static const map::OccupancyGrid grid = [] {
    return sim::rasterize_environment(sim::evaluation_environment(), 0.05,
                                      0.01);
  }();
  return grid;
}

std::vector<sensor::Beam> synthetic_beams(std::size_t count) {
  std::vector<sensor::Beam> beams(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double az =
        -0.35 + 0.7 * static_cast<double>(i) / static_cast<double>(count);
    const double r = 0.8 + 0.05 * static_cast<double>(i % 7);
    beams[i].azimuth_body = az;
    beams[i].range_m = static_cast<float>(r);
    beams[i].endpoint_body = Vec2f{static_cast<float>(r * std::cos(az)),
                                   static_cast<float>(r * std::sin(az))};
  }
  return beams;
}

/// One measured configuration.
struct Entry {
  std::string variant;   ///< fp32qm / fp32qm_mixture / fp16qm.
  std::string backend;   ///< scalar / avx2.
  double seconds = 0.0;
  std::size_t iterations = 0;
  double particles_beams_per_s = 0.0;
  double speedup_vs_scalar = 1.0;
};

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Times observation_update() on a fresh filter until `min_seconds` of
/// timed work accumulate. The cloud is re-initialized before every timed
/// call (outside the timer) so each update sees identical, well-scaled
/// weights.
template <typename Traits>
Entry run_variant(const Args& args, kernels::KernelBackend backend,
                  bool mixture) {
  const auto& grid = evaluation_grid();
  const typename Traits::Map dmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = args.particles;
  if (mixture) cfg.z_short = 0.4;
  core::SerialExecutor exec;
  core::ParticleFilter<Traits> pf(dmap, cfg, exec);
  pf.set_kernel_backend(backend);
  const auto beams = synthetic_beams(args.beams);
  const auto free_cells = grid.free_cell_centers();

  Entry e;
  e.backend = kernels::to_string(backend);
  // Calibrate the batch size on a short probe, then run timed batches
  // until the duration floor is met.
  std::size_t iters = 0;
  double timed = 0.0;
  while (timed < args.min_seconds || iters < 4) {
    pf.init_uniform(free_cells, 0.025);
    const double t0 = now_seconds();
    pf.observation_update(beams);
    timed += now_seconds() - t0;
    ++iters;
  }
  e.seconds = timed;
  e.iterations = iters;
  e.particles_beams_per_s = static_cast<double>(iters) *
                            static_cast<double>(args.particles) *
                            static_cast<double>(args.beams) / timed;
  return e;
}

/// One measured motion configuration.
struct MotionEntry {
  std::size_t particles = 0;
  std::string backend;
  double seconds = 0.0;
  std::size_t iterations = 0;
  double ns_per_particle = 0.0;  ///< Median call.
  double speedup_vs_scalar = 1.0;
};

/// Times motion_update() over `particles` particles in the default chunks,
/// one filter per backend, the backends' calls alternating so that a
/// change in machine speed hits all of them alike, until every backend
/// has `min_seconds` of timed work. Each cloud is drawn anew before every
/// timed call (outside the timer), so every call moves a uniform cloud.
/// One entry per backend, in `backends` order, at its median call.
std::vector<MotionEntry> run_motion(
    const Args& args, std::size_t particles,
    const std::vector<kernels::KernelBackend>& backends) {
  const auto& grid = evaluation_grid();
  const map::QuantizedDistanceMap dmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = particles;
  core::SerialExecutor exec;
  const auto free_cells = grid.free_cell_centers();
  const Pose2 delta{0.05, 0.01, 0.02};

  std::vector<core::ParticleFilter<core::Fp32QmTraits>> filters;
  filters.reserve(backends.size());
  for (const auto backend : backends) {
    filters.emplace_back(dmap, cfg, exec);
    filters.back().set_kernel_backend(backend);
  }
  // The gate compares medians: a handful of calls (the first ones cold)
  // would make it a coin toss.
  constexpr std::size_t kMinCalls = 64;
  std::vector<std::vector<double>> calls(backends.size());
  std::vector<double> totals(backends.size(), 0.0);
  while (*std::min_element(totals.begin(), totals.end()) < args.min_seconds ||
         calls.front().size() < kMinCalls) {
    for (std::size_t b = 0; b < backends.size(); ++b) {
      filters[b].init_uniform(free_cells, 0.025);
      const double t0 = now_seconds();
      filters[b].motion_update(delta);
      calls[b].push_back(now_seconds() - t0);
      totals[b] += calls[b].back();
    }
  }
  std::vector<MotionEntry> entries;
  for (std::size_t b = 0; b < backends.size(); ++b) {
    std::vector<double>& c = calls[b];
    MotionEntry e;
    e.particles = particles;
    e.backend = kernels::to_string(backends[b]);
    e.iterations = c.size();
    e.seconds = totals[b];
    std::nth_element(c.begin(), c.begin() + c.size() / 2, c.end());
    e.ns_per_particle =
        c[c.size() / 2] * 1e9 / static_cast<double>(particles);
    entries.push_back(std::move(e));
  }
  return entries;
}

/// The "model name" of the first CPU in /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// `s` as a JSON string literal (quotes and backslashes escaped).
std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + '"';
}

void json_entry(std::ofstream& os, const Entry& e, bool last) {
  os << "    {\n"
     << "      \"variant\": \"" << e.variant << "\",\n"
     << "      \"backend\": \"" << e.backend << "\",\n"
     << "      \"seconds\": " << e.seconds << ",\n"
     << "      \"iterations\": " << e.iterations << ",\n"
     << "      \"particles_beams_per_s\": " << e.particles_beams_per_s
     << ",\n"
     << "      \"speedup_vs_scalar\": " << e.speedup_vs_scalar << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

void json_motion_entry(std::ofstream& os, const MotionEntry& e, bool last) {
  os << "    {\n"
     << "      \"particles\": " << e.particles << ",\n"
     << "      \"chunks\": " << core::MclConfig{}.chunks << ",\n"
     << "      \"backend\": \"" << e.backend << "\",\n"
     << "      \"seconds\": " << e.seconds << ",\n"
     << "      \"iterations\": " << e.iterations << ",\n"
     << "      \"ns_per_particle\": " << e.ns_per_particle << ",\n"
     << "      \"speedup_vs_scalar\": " << e.speedup_vs_scalar << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  std::vector<kernels::KernelBackend> backends{
      kernels::KernelBackend::kScalar};
  if (kernels::backend_supported(kernels::KernelBackend::kAvx2)) {
    backends.push_back(kernels::KernelBackend::kAvx2);
  }

  // Variant sweep. The scalar entry of each variant is the reference its
  // SIMD rows are normalized against.
  struct Variant {
    const char* name;
    bool mixture;
    bool fp16_traits;
  };
  const Variant variants[] = {
      {"fp32qm", false, false},
      {"fp32qm_mixture", true, false},
      {"fp16qm", false, true},
  };

  std::vector<Entry> entries;
  double avx2_plain_speedup = 0.0;
  bool simd_not_slower = true;
  std::vector<std::string> gate_failures;

  for (const Variant& v : variants) {
    double scalar_rate = 0.0;
    for (const auto backend : backends) {
      Entry e = v.fp16_traits
                    ? run_variant<core::Fp16QmTraits>(args, backend, v.mixture)
                    : run_variant<core::Fp32QmTraits>(args, backend, v.mixture);
      e.variant = v.name;
      if (backend == kernels::KernelBackend::kScalar) {
        scalar_rate = e.particles_beams_per_s;
      } else {
        e.speedup_vs_scalar = e.particles_beams_per_s / scalar_rate;
        if (std::strcmp(v.name, "fp32qm") == 0 &&
            backend == kernels::KernelBackend::kAvx2) {
          avx2_plain_speedup = e.speedup_vs_scalar;
        }
        if (e.speedup_vs_scalar < 1.0) {
          simd_not_slower = false;
          gate_failures.push_back(std::string(v.name) + "/" + e.backend +
                                  " slower than scalar");
        }
      }
      std::printf("%-16s %-7s %12.3e particles*beams/s  (%5.2fx)\n", v.name,
                  e.backend.c_str(), e.particles_beams_per_s,
                  e.speedup_vs_scalar);
      entries.push_back(std::move(e));
    }
  }

  // Motion: one row per backend for each filter size.
  std::vector<MotionEntry> motion_entries;
  bool motion_not_slower = true;
  for (const std::size_t particles : {std::size_t{4096}, std::size_t{128}}) {
    std::vector<MotionEntry> rows = run_motion(args, particles, backends);
    for (MotionEntry& e : rows) {
      e.speedup_vs_scalar = rows.front().ns_per_particle / e.ns_per_particle;
      if (e.ns_per_particle > rows.front().ns_per_particle) {
        motion_not_slower = false;
        gate_failures.push_back("motion/" + std::to_string(particles) + "/" +
                                e.backend + " slower than scalar");
      }
      std::printf("motion N=%-6zu  %-7s %12.1f ns/particle      (%5.2fx)\n",
                  particles, e.backend.c_str(), e.ns_per_particle,
                  e.speedup_vs_scalar);
      motion_entries.push_back(std::move(e));
    }
  }

  constexpr double kAvx2MinSpeedup = 2.0;
  const bool avx2_supported =
      kernels::backend_supported(kernels::KernelBackend::kAvx2);
  if (avx2_supported && avx2_plain_speedup < kAvx2MinSpeedup) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "avx2 fp32qm speedup %.2fx below the %.1fx gate",
                  avx2_plain_speedup, kAvx2MinSpeedup);
    gate_failures.emplace_back(buf);
  }
  const bool gates_pass = gate_failures.empty();

  for (const std::string& f : gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  if (gates_pass) std::printf("all gates passed\n");

  if (args.json_path != nullptr) {
    std::ofstream js(args.json_path);
    if (!js) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path);
      return 2;
    }
    js << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n"
       << "  \"particles\": " << args.particles << ",\n"
       << "  \"beams\": " << args.beams << ",\n"
       << "  \"host\": {\n"
       << "    \"cpu_model\": " << json_string(cpu_model()) << ",\n"
       << "    \"logical_cpus\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "    \"compiler\": " << json_string(__VERSION__) << ",\n"
       << "    \"default_backend\": \""
       << kernels::to_string(kernels::default_backend()) << "\"\n"
       << "  },\n"
       << "  \"backends\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      js << (i ? ", " : "") << '"' << kernels::to_string(backends[i]) << '"';
    }
    js << "],\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      json_entry(js, entries[i], i + 1 == entries.size());
    }
    js << "  ],\n  \"motion_entries\": [\n";
    for (std::size_t i = 0; i < motion_entries.size(); ++i) {
      json_motion_entry(js, motion_entries[i], i + 1 == motion_entries.size());
    }
    js << "  ],\n"
       << "  \"gates\": {\n"
       << "    \"avx2_min_speedup\": " << kAvx2MinSpeedup << ",\n"
       << "    \"avx2_fp32qm_speedup\": " << avx2_plain_speedup << ",\n"
       << "    \"simd_not_slower_than_scalar\": "
       << (simd_not_slower ? "true" : "false") << ",\n"
       << "    \"motion_simd_not_slower_than_scalar\": "
       << (motion_not_slower ? "true" : "false") << ",\n"
       << "    \"pass\": " << (gates_pass ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
    std::printf("wrote %s\n", args.json_path);
  }
  return gates_pass ? 0 : 1;
}
