// Kernel-backend benchmark: observation-sweep throughput per KernelBackend
// (scalar reference vs the AVX2 SIMD path of src/core/kernels/) and per
// weight representation (fp32, fp32-compute/fp16-store, native fp16).
//
// Self-contained (no Google Benchmark): each variant times repeated
// observation_update() calls over the evaluation grid, resetting the
// particle cloud between iterations OUTSIDE the timed region so weight
// underflow (and denormal arithmetic) cannot skew the numbers. Iteration
// counts auto-calibrate to a minimum timed duration.
//
// The committed artifact is BENCH_kernels.json (--json). Threshold gates
// (exit code 1 on violation, so CI fails loudly instead of silently
// regressing):
//   * AVX2 plain-path throughput >= 2.0x scalar (when AVX2 is supported).
//   * Every SIMD variant >= 1.0x its scalar counterpart.
//
// The report ends with a projected GAP9 impact: the observation phase's
// calibrated per-particle L1 compute cost is divided by the measured
// host speedup (the L2-traffic term and the fixed fork-join costs are
// deliberately left untouched — vectorization buys arithmetic, not
// memory), then the full update latency and energy are re-evaluated with
// the platform timing/power models.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/particle_filter.hpp"
#include "map/rasterize.hpp"
#include "platform/gap9_power.hpp"
#include "platform/gap9_timing.hpp"
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
    if (is("--help") || is("-h")) {
      std::printf(
          "bench_kernels — observation-sweep throughput per kernel backend\n"
          "  --particles N   particles per filter (default 4096)\n"
          "  --beams N       beams per observation update (default 16)\n"
          "  --min-seconds S timed duration floor per variant (default 0.4)\n"
          "  --smoke         fast CI mode (fewer particles, shorter floor)\n"
          "  --json FILE     write the report as JSON (BENCH_kernels.json)\n"
          "  --help          this message\n");
      std::exit(0);
    } else if (is("--particles")) {
      args.particles = static_cast<std::size_t>(std::atoi(value()));
    } else if (is("--beams")) {
      args.beams = static_cast<std::size_t>(std::atoi(value()));
    } else if (is("--min-seconds")) {
      args.min_seconds = std::atof(value());
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
  std::string weights;   ///< fp32 / fp16-store / fp16.
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
                  core::WeightPrecision wp, bool mixture) {
  const auto& grid = evaluation_grid();
  const typename Traits::Map dmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = args.particles;
  cfg.weight_precision = wp;
  if (mixture) {
    cfg.z_short = 0.4;
    cfg.lambda_short = 1.3;
  }
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

void json_entry(std::ofstream& os, const Entry& e, bool last) {
  os << "    {\n"
     << "      \"variant\": \"" << e.variant << "\",\n"
     << "      \"weights\": \"" << e.weights << "\",\n"
     << "      \"backend\": \"" << e.backend << "\",\n"
     << "      \"seconds\": " << e.seconds << ",\n"
     << "      \"iterations\": " << e.iterations << ",\n"
     << "      \"particles_beams_per_s\": " << e.particles_beams_per_s
     << ",\n"
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
    const char* weights;
    core::WeightPrecision wp;
    bool mixture;
    bool fp16_traits;
  };
  const Variant variants[] = {
      {"fp32qm", "fp32", core::WeightPrecision::kNative, false, false},
      {"fp32qm_mixture", "fp32", core::WeightPrecision::kNative, true, false},
      {"fp32qm", "fp16-store", core::WeightPrecision::kFp16, false, false},
      {"fp16qm", "fp16", core::WeightPrecision::kNative, false, true},
  };

  std::vector<Entry> entries;
  double avx2_plain_speedup = 0.0;
  bool gates_pass = true;
  std::vector<std::string> gate_failures;

  for (const Variant& v : variants) {
    double scalar_rate = 0.0;
    for (const auto backend : backends) {
      Entry e = v.fp16_traits
                    ? run_variant<core::Fp16QmTraits>(args, backend, v.wp,
                                                      v.mixture)
                    : run_variant<core::Fp32QmTraits>(args, backend, v.wp,
                                                      v.mixture);
      e.variant = v.name;
      e.weights = v.weights;
      if (backend == kernels::KernelBackend::kScalar) {
        scalar_rate = e.particles_beams_per_s;
      } else {
        e.speedup_vs_scalar = e.particles_beams_per_s / scalar_rate;
        if (std::strcmp(v.name, "fp32qm") == 0 &&
            std::strcmp(v.weights, "fp32") == 0 &&
            backend == kernels::KernelBackend::kAvx2) {
          avx2_plain_speedup = e.speedup_vs_scalar;
        }
        if (e.speedup_vs_scalar < 1.0) {
          gates_pass = false;
          gate_failures.push_back(std::string(v.name) + "/" + v.weights +
                                  "/" + e.backend + " slower than scalar");
        }
      }
      std::printf("%-16s %-10s %-7s %12.3e particles*beams/s  (%5.2fx)\n",
                  v.name, v.weights, e.backend.c_str(),
                  e.particles_beams_per_s, e.speedup_vs_scalar);
      entries.push_back(std::move(e));
    }
  }

  constexpr double kAvx2MinSpeedup = 2.0;
  const bool avx2_supported =
      kernels::backend_supported(kernels::KernelBackend::kAvx2);
  if (avx2_supported && avx2_plain_speedup < kAvx2MinSpeedup) {
    gates_pass = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "avx2 fp32qm speedup %.2fx below the %.1fx gate",
                  avx2_plain_speedup, kAvx2MinSpeedup);
    gate_failures.emplace_back(buf);
  }

  // --- GAP9 projection -------------------------------------------------
  // The measured best-backend speedup is applied to the observation
  // phase's per-particle L1 compute cost; everything else (fixed costs,
  // L2 traffic, the other three phases, the 40 us update constant) stays
  // calibrated. This mirrors what GAP9's own 8-lane fp16 SIMD would buy:
  // arithmetic throughput, not memory bandwidth.
  const platform::Gap9TimingModel baseline =
      platform::calibrated_timing_model();
  platform::Gap9TimingModel projected = baseline;
  const double obs_speedup = std::max(avx2_plain_speedup, 1.0);
  projected.observation.per_particle_l1 /= obs_speedup;
  const std::size_t gap9_particles = args.particles;
  const std::size_t bytes_per_particle = 16;  // fp16 particle layout.
  const platform::Placement placement = platform::placement_for(
      gap9_particles * bytes_per_particle, baseline.spec);
  const double freq = baseline.spec.max_frequency_mhz;
  const double base_update_us =
      baseline.update_ns(gap9_particles, 8, placement, freq) / 1e3;
  const double proj_update_us =
      projected.update_ns(gap9_particles, 8, placement, freq) / 1e3;
  const platform::Gap9PowerModel power;
  const double base_energy_uj =
      power.update_energy_uj(baseline, gap9_particles, 8, placement, freq);
  const double proj_energy_uj =
      power.update_energy_uj(projected, gap9_particles, 8, placement, freq);
  std::printf(
      "gap9 projection (%zu particles, 8 cores, %s, %.0f MHz):\n"
      "  update: %.1f us -> %.1f us   energy: %.2f uJ -> %.2f uJ\n",
      gap9_particles, placement == platform::Placement::kL1 ? "L1" : "L2",
      freq, base_update_us, proj_update_us, base_energy_uj, proj_energy_uj);

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
       << "  \"backends\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      js << (i ? ", " : "") << '"' << kernels::to_string(backends[i]) << '"';
    }
    js << "],\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      json_entry(js, entries[i], i + 1 == entries.size());
    }
    js << "  ],\n"
       << "  \"gates\": {\n"
       << "    \"avx2_min_speedup\": " << kAvx2MinSpeedup << ",\n"
       << "    \"avx2_fp32qm_speedup\": " << avx2_plain_speedup << ",\n"
       << "    \"simd_not_slower_than_scalar\": true,\n"
       << "    \"pass\": " << (gates_pass ? "true" : "false") << "\n"
       << "  },\n"
       << "  \"gap9_projection\": {\n"
       << "    \"particles\": " << gap9_particles << ",\n"
       << "    \"cores\": 8,\n"
       << "    \"placement\": \""
       << (placement == platform::Placement::kL1 ? "L1" : "L2") << "\",\n"
       << "    \"frequency_mhz\": " << freq << ",\n"
       << "    \"observation_compute_speedup\": " << obs_speedup << ",\n"
       << "    \"baseline_update_us\": " << base_update_us << ",\n"
       << "    \"projected_update_us\": " << proj_update_us << ",\n"
       << "    \"baseline_update_energy_uj\": " << base_energy_uj << ",\n"
       << "    \"projected_update_energy_uj\": " << proj_energy_uj << "\n"
       << "  }\n"
       << "}\n";
    std::printf("wrote %s\n", args.json_path);
  }
  return gates_pass ? 0 : 1;
}
