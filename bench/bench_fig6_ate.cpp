// Reproduces paper Fig 6: absolute trajectory error (ATE) after
// convergence versus particle count, for the four configurations
// fp32 / fp32 1tof / fp32qm / fp16qm, aggregated over the standard flight
// sequences and noise seeds.
//
// Paper reference values: two-sensor variants hold ≈ 0.15 m ATE over a
// wide range of particle counts; the single-sensor ablation is worse.

#include <cstdio>
#include <iostream>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "eval/experiment.hpp"

using namespace tofmcl;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(
      argc, argv, "Fig 6 — ATE vs particle number");

  eval::SweepConfig cfg;
  cfg.sequences = args.sequences;
  cfg.seeds_per_sequence = args.seeds;
  cfg.threads = args.threads;

  std::fprintf(stderr,
               "fig6: running %zu sequences x %zu seeds x 4 variants x %zu "
               "particle counts (%s campaign runs)...\n",
               cfg.sequences, cfg.seeds_per_sequence,
               cfg.particle_counts.size(),
               cfg.threads == 1 ? "serial" : "batched");
  const eval::SweepResult result = eval::run_accuracy_sweep(cfg);
  const auto cells = eval::summarize(cfg, result);

  std::printf("\n=== Fig 6 — ATE (m) vs particle number ===\n");
  std::printf("(mean position error after convergence; converged runs)\n\n");
  Table table({"particles", "fp32", "fp32_1tof", "fp32qm", "fp16qm"});
  for (const std::size_t n : cfg.particle_counts) {
    auto row = table.row();
    row.cell(n);
    for (const eval::Variant v : cfg.variants) {
      for (const auto& cell : cells) {
        if (cell.variant == v && cell.particles == n) {
          row.cell(cell.mean_ate_m, 3);
        }
      }
    }
    row.commit();
  }
  table.print(std::cout);
  std::printf(
      "\npaper: fp32/fp32qm/fp16qm ≈ 0.15 m and flat for N ≥ 256;\n"
      "       fp32 1tof visibly higher. Shape target, not absolute.\n");

  if (args.csv_dir) {
    table.write_csv(std::filesystem::path(*args.csv_dir) / "fig6_ate.csv");
    std::fprintf(stderr, "fig6: CSV written to %s/fig6_ate.csv\n",
                 args.csv_dir->c_str());
  }
  return 0;
}
