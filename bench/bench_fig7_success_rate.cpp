// Reproduces paper Fig 7: localization success rate (%) versus particle
// count for fp32 / fp32 1tof / fp32qm / fp16qm.
//
// Paper reference: above 95 % success with sufficient particles for the
// two-sensor variants; significantly lower with a single ToF sensor.

#include <cstdio>
#include <iostream>

#include "bench_args.hpp"
#include "common/table.hpp"
#include "eval/experiment.hpp"

using namespace tofmcl;

int main(int argc, char** argv) {
  const bench::BenchArgs args = bench::parse_args(
      argc, argv, "Fig 7 — success rate vs particle number");

  eval::SweepConfig cfg;
  cfg.sequences = args.sequences;
  cfg.seeds_per_sequence = args.seeds;
  cfg.threads = args.threads;

  std::fprintf(stderr,
               "fig7: running %zu sequences x %zu seeds x 4 variants x %zu "
               "particle counts (%s campaign runs)...\n",
               cfg.sequences, cfg.seeds_per_sequence,
               cfg.particle_counts.size(),
               cfg.threads == 1 ? "serial" : "batched");
  const eval::SweepResult result = eval::run_accuracy_sweep(cfg);
  const auto cells = eval::summarize(cfg, result);

  std::printf("\n=== Fig 7 — success rate (%%) vs particle number ===\n");
  std::printf("(converged with ATE <= 1 m until sequence end)\n\n");
  Table table({"particles", "fp32", "fp32_1tof", "fp32qm", "fp16qm"});
  for (const std::size_t n : cfg.particle_counts) {
    auto row = table.row();
    row.cell(n);
    for (const eval::Variant v : cfg.variants) {
      for (const auto& cell : cells) {
        if (cell.variant == v && cell.particles == n) {
          row.cell(100.0 * cell.success_rate, 1);
        }
      }
    }
    row.commit();
  }
  table.print(std::cout);
  std::printf(
      "\npaper: two-sensor variants exceed 95%% with sufficient particles\n"
      "       and climb with N; fp32 1tof significantly lower.\n");

  if (args.csv_dir) {
    table.write_csv(std::filesystem::path(*args.csv_dir) /
                    "fig7_success_rate.csv");
  }
  return 0;
}
