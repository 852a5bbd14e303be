// Memory planner: answers the deployment question behind paper Fig 9 —
// "given my map, which precision variant and particle count fit on the
// GAP9, and at what frequency do I stay real-time?"
//
// Usage: memory_planner [map_area_m2] [target_particles]

#include <cstdio>
#include <cstdlib>

#include "example_args.hpp"
#include "platform/gap9_power.hpp"
#include "platform/memory_model.hpp"

using namespace tofmcl;
using namespace tofmcl::platform;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: memory_planner [map_area_m2] [target_particles]\n";
  if (argc > 3) examples::usage_error("too many arguments", kUsage);
  const double area =
      argc > 1 ? examples::parse_number<double>(argv[1], kUsage, 0.0) : 31.2;
  const std::size_t target =
      argc > 2 ? examples::parse_number<std::size_t>(argv[2], kUsage, 1)
               : 4096;

  const Gap9Spec spec;
  const Gap9TimingModel timing = calibrated_timing_model();
  const Gap9PowerModel power;
  constexpr double kRes = 0.05;

  std::printf("=== GAP9 deployment plan for a %.1f m^2 map, %zu particles "
              "===\n\n",
              area, target);

  const core::Precision variants[] = {core::Precision::kFp32,
                                      core::Precision::kFp32Qm,
                                      core::Precision::kFp16Qm};
  for (const core::Precision p : variants) {
    const std::size_t map_b = map_bytes(area, kRes, p);
    const std::size_t part_b = particle_bytes(target, p);
    const std::size_t cap_l1 = max_particles(area, kRes, p, spec.l1_bytes);
    const std::size_t cap_l2 = max_particles(area, kRes, p, spec.l2_bytes);

    std::printf("%s:\n", core::to_string(p));
    std::printf("  map %zu kB, particles %zu kB (double-buffered)\n",
                map_b / 1024, part_b / 1024);
    std::printf("  capacity: %zu particles beside the map in L1, %zu in L2\n",
                cap_l1, cap_l2);
    if (target <= cap_l1) {
      std::printf("  -> everything fits in L1\n");
    } else if (target <= cap_l2) {
      std::printf("  -> needs L2 for the particle set\n");
    } else {
      std::printf("  -> DOES NOT FIT (reduce particles or quantize)\n\n");
      continue;
    }

    const Placement placement = placement_for(part_b, spec);
    const double t400 = timing.update_ns(target, 8, placement, 400.0) * 1e-6;
    const double fmin =
        timing.min_realtime_frequency_mhz(target, 8, placement);
    std::printf("  update: %.2f ms at 400 MHz; real-time (15 Hz) down to "
                "%.0f MHz\n",
                t400, fmin);
    std::printf("  power: %.0f mW at 400 MHz, %.0f mW at the minimum "
                "frequency\n\n",
                power.active_power_mw(400.0),
                power.active_power_mw(std::max(fmin, 1.0)));
  }

  const SystemPowerBudget budget;
  std::printf("system: sensors %0.f mW + electronics %.0f mW; with GAP9 at "
              "400 MHz the\nsensing+processing share of drone power is "
              "%.1f%% (paper: ~7%%).\n",
              budget.tof_sensor_mw * 2, budget.electronics_mw,
              100.0 * budget.overhead_fraction(power.active_power_mw(400.0)));
  return 0;
}
