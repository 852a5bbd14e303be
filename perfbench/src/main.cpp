// perfbench: the repository's end-to-end benchmark program.
//
//   perfbench --workload onboard_global|serve_paced|serve_churn
//             --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--ate-max M] [--success-min F]
//             [--source-id ID]
//   perfbench --list-metrics
//
// Prints host metadata, checks and report lines as '#' lines, then one
// JSON result as the last line of standard output:
//   {"correct": b, "attempted": n, "failed": n, "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set. The same record, with host metadata and every check, is
// written to DIR/<workload>.trace<k>.json. Exits 1 when a check fails and
// 2 on a usage or runtime error (then without a result line).

#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "core/kernels/kernel_backend.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Appends `s` as a JSON string literal.
void put_str(std::ostringstream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else {
      os << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
  }
  os << '"';
}

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

std::string affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::ostringstream os;
  const char* sep = "";
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      os << sep << cpu;
      sep = ",";
    }
  }
  return os.str();
}

std::string host_json(const Options& opt, const Outcome& out,
                      const std::string& source_id) {
  std::ostringstream os;
  const auto field = [&](const char* key, const std::string& value) {
    os << ", \"" << key << "\": ";
    put_str(os, value);
  };
  os << "{\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN);
  field("affinity", affinity());
  field("cpu_model", cpu_model());
  field("compiler", __VERSION__);
  field("cxx_flags", PERFBENCH_CXX_FLAGS);
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("source", source_id);
  field("kernel_backend", tofmcl::core::kernels::to_string(
                              tofmcl::core::kernels::default_backend()));
  field("workload", opt.workload);
  os << ", \"threads\": " << out.threads;
  field("workers", out.workers);
  os << "}";
  return os.str();
}

std::string catalog_json(const std::vector<MetricDecl>& c) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < c.size(); ++i) {
    os << (i ? ", " : "") << "{\"name\": ";
    put_str(os, c[i].name);
    os << ", \"unit\": ";
    put_str(os, c[i].unit);
    os << "}";
  }
  os << "]";
  return os.str();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--ate-max M] "
               "[--success-min F] [--source-id ID] | --list-metrics\n",
               msg);
  std::exit(2);
}

int run(int argc, char** argv) {
  Options opt;
  std::string source_id = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list-metrics") {
      std::printf("{\"end_to_end\": %s, \"per_layer\": %s}\n",
                  catalog_json(end_to_end_catalog()).c_str(),
                  catalog_json(per_layer_catalog()).c_str());
      return 0;
    }
    if (i + 1 >= argc) usage(("missing value after " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = *end == '\0' && opt.seconds > 0.0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--ate-max") {
      opt.ate_max = std::strtod(v.c_str(), nullptr);
    } else if (a == "--success-min") {
      opt.success_min = std::strtod(v.c_str(), nullptr);
    } else if (a == "--source-id") {
      source_id = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  std::filesystem::create_directories(opt.out_dir);

  Outcome out(opt.trace);
  if (opt.workload == "onboard_global") {
    run_onboard(opt, out);
  } else if (opt.workload == "serve_paced") {
    run_serving(opt, false, out);
  } else if (opt.workload == "serve_churn") {
    run_serving(opt, true, out);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  for (const std::string& p : out.metrics.problems()) {
    out.check("metric_" + p, false);
  }
  bool correct = true;
  std::ostringstream checks;
  checks << "[";
  for (std::size_t i = 0; i < out.checks.size(); ++i) {
    const Check& c = out.checks[i];
    correct = correct && c.ok;
    checks << (i ? ", " : "") << "{\"name\": ";
    put_str(checks, c.name);
    checks << ", \"ok\": " << (c.ok ? "true" : "false") << ", \"detail\": ";
    put_str(checks, c.detail);
    checks << "}";
  }
  checks << "]";
  const std::string host = host_json(opt, out, source_id);
  std::ostringstream result_os;
  result_os << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed
            << ", \"metrics\": " << out.metrics.json() << "}";
  const std::string result = result_os.str();

  std::ostringstream record;
  record << "{\"workload\": ";
  put_str(record, opt.workload);
  record << ", \"seed\": " << opt.seed << ", \"seconds\": " << opt.seconds
         << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"host\": " << host
         << ", \"checks\": " << checks.str() << ", \"notes\": [";
  for (std::size_t i = 0; i < out.notes.size(); ++i) {
    record << (i ? ", " : "");
    put_str(record, out.notes[i]);
  }
  record << "], \"result\": " << result << "}\n";
  std::ofstream(opt.out_dir + "/" + opt.workload + ".trace" +
                (opt.trace ? "1" : "0") + ".json")
      << record.str();

  std::printf("# host %s\n", host.c_str());
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const Check& c : out.checks) {
    std::printf("# check %-40s %s %s\n", c.name.c_str(), c.ok ? "ok" : "FAIL",
                c.detail.c_str());
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
