#pragma once
// The benchmark's metric catalog and the sink that enforces it.
//
// Every metric the program can print is declared here with its unit; the
// catalog must equal the end_to_end / per_layer lists of BENCHMARK.json
// (tests/test_names.py checks both directions). An untraced run prints
// exactly the end-to-end set, a traced run exactly the per-layer set, on
// every workload. A per-layer metric of a layer the workload does not
// exercise (the serving layer in onboard_global) reads 0.

#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// The bounded end-to-end set holds only figures that repeat on a shared
// virtual machine: CPU time (the guest's steal accounting keeps time the
// host took away out of it), and figures fixed by the seed. Wall-clock
// latency and throughput are reported in the traced run's per-layer set,
// measured by its untraced half: under host contention a 4-thread
// fork-join correction's wall time swings by 2x between runs.
inline const std::vector<MetricDecl>& end_to_end_catalog() {
  static const std::vector<MetricDecl> k = {
      {"setup_s", "s"},
      {"cpu_us_per_correction", "us"},
      {"ate_m", "m"},
      {"success_frac", "ratio"},
      {"idle_bytes_per_session", "B"},
      {"peak_rss_mib", "MiB"},
  };
  return k;
}

/// End-to-end metrics a replay loop measures.
inline const std::vector<std::string>& e2e_loop_metrics() {
  static const std::vector<std::string> k = {
      "cpu_us_per_correction", "ate_m", "success_frac",
      "idle_bytes_per_session"};
  return k;
}

/// Wall-clock figures of a replay loop (per-layer set, from the traced
/// run's untraced half; '#' notes in an untraced run).
inline const std::vector<std::string>& wall_loop_metrics() {
  static const std::vector<std::string> k = {
      "corrections_per_s", "correction_p50_us", "correction_p90_us",
      "correction_p99_us", "push_p90_us",       "push_p99_us"};
  return k;
}

inline const std::vector<MetricDecl>& per_layer_catalog() {
  static const std::vector<MetricDecl> k = [] {
    std::vector<MetricDecl> v = {
        {"setup_wall_s", "s"},
        {"corrections_per_s", "1/s"},
        {"correction_p50_us", "us"},
        {"correction_p90_us", "us"},
        {"correction_p99_us", "us"},
        {"push_p90_us", "us"},
        {"push_p99_us", "us"},
        {"eval.export_sources_s", "s"},
        {"core.build_context_s", "s"},
        {"serve.open_session_us", "us"},
        {"sensor.extract_beams_us_per_batch", "us"},
        {"sensor.beams_per_batch", "count"},
        {"localizer.on_frames_us.corrected", "us"},
        {"localizer.on_frames_us.gated", "us"},
        {"localizer.gate_pass_ratio", "ratio"},
        {"localizer.dropped_frames", "count"},
        {"pf.motion_obs_ns_per_particle", "ns"},
        {"pf.motion_ns_per_particle", "ns"},
        {"pf.resample_ns_per_particle", "ns"},
        {"pf.pose_ns_per_particle", "ns"},
        {"pf.adapt_ns_per_particle", "ns"},
        {"pf.gated_beam_frac", "ratio"},
        {"pf128.motion_obs_ns_per_particle", "ns"},
        {"pf128.motion_ns_per_particle", "ns"},
        {"pf128.resample_ns_per_particle", "ns"},
        {"pf128.pose_ns_per_particle", "ns"},
        {"pf128.adapt_ns_per_particle", "ns"},
        {"pf.active_particles_mean", "count"},
        {"kernels.particle_beams_per_s", "1/s"},
        {"pool.speedup", "x"},
        {"pool.efficiency", "ratio"},
        {"serve.pump_overhead_us_per_correction", "us"},
        {"serve.pump_busy_frac", "ratio"},
        {"serve.push_us.p50", "us"},
        {"serve.push_us.p99", "us"},
        {"serve.pump_ms.p50", "ms"},
        {"serve.pump_ms.max", "ms"},
        {"serve.saturated_signals", "count"},
        {"serve.dropped_inputs", "count"},
        {"serve.evict_sweep_ms.p50", "ms"},
        {"serve.evict_sweep_ms.max", "ms"},
        {"serve.evicted", "count"},
        {"serve.restored", "count"},
        {"serve.push_restore_self_us", "us"},
        {"serve.evict_encode_us_per_session", "us"},
        {"store.put_us.p50", "us"},
        {"store.put_us.p99", "us"},
        {"store.take_us.p50", "us"},
        {"store.take_us.p99", "us"},
        {"store.blob_bytes.mean", "B"},
        {"store.blob_bytes.max", "B"},
        {"store.puts", "count"},
        {"store.takes", "count"},
        {"map.bytes", "B"},
        {"serve.resident_particle_bytes", "B"},
        {"arena.pooled_bytes", "B"},
        {"split.correction_p50_us", "us"},
        {"split.extract_us", "us"},
        {"split.filter_us", "us"},
        {"split.unattributed_us", "us"},
        {"self.workload_frac", "ratio"},
        {"self.flight_frac", "ratio"},
        {"self.open_frac", "ratio"},
        {"self.on_frames_frac", "ratio"},
        {"self.generation_frac", "ratio"},
        {"self.push_frac", "ratio"},
        {"self.pump_frac", "ratio"},
        {"self.evict_idle_frac", "ratio"},
        {"self.store_put_frac", "ratio"},
        {"self.store_take_frac", "ratio"},
        {"trace.spans", "count"},
        {"trace.ns_per_span", "ns"},
        {"trace.overhead_frac", "ratio"},
    };
    static const std::vector<std::string> overhead_names = [] {
      std::vector<std::string> n;
      for (const auto* list : {&e2e_loop_metrics(), &wall_loop_metrics()}) {
        for (const std::string& m : *list) n.push_back("overhead." + m);
      }
      return n;
    }();
    for (const std::string& n : overhead_names) {
      v.push_back({n.c_str(), "ratio"});
    }
    return v;
  }();
  return k;
}

/// Collects one run's metrics; rejects undeclared names and, on output,
/// missing or non-finite ones.
class MetricSink {
 public:
  explicit MetricSink(const std::vector<MetricDecl>& catalog)
      : catalog_(catalog) {}

  void set(std::string_view name, double value) {
    for (const MetricDecl& d : catalog_) {
      if (name == d.name) {
        values_[std::string(name)] = value;
        return;
      }
    }
    throw std::logic_error("undeclared metric: " + std::string(name));
  }

  /// Names of declared metrics that were never set or are not finite.
  std::vector<std::string> problems() const {
    std::vector<std::string> out;
    for (const MetricDecl& d : catalog_) {
      const auto it = values_.find(d.name);
      if (it == values_.end()) {
        out.push_back(std::string(d.name) + " (missing)");
      } else if (!std::isfinite(it->second)) {
        out.push_back(std::string(d.name) + " (not finite)");
      }
    }
    return out;
  }

  /// {"name": {"value": v, "unit": u}, ...} in catalog order.
  std::string json() const {
    std::string s = "{";
    bool first = true;
    char buf[64];
    for (const MetricDecl& d : catalog_) {
      const auto it = values_.find(d.name);
      const double v = it == values_.end() ? 0.0 : it->second;
      std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
      s += (first ? "\"" : ", \"") + std::string(d.name) +
           "\": {\"value\": " + buf + ", \"unit\": \"" + d.unit + "\"}";
      first = false;
    }
    return s + "}";
  }

 private:
  const std::vector<MetricDecl>& catalog_;
  std::map<std::string, double> values_;
};

}  // namespace perfbench
