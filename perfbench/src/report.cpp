// Metric helpers shared by the workloads: loop figures, checked tail
// percentiles, set-up cost, span self-time shares, process CPU time and
// the process memory high-water mark.

#include <sys/resource.h>

#include <cstdio>

#include "bench.hpp"
#include "stats.hpp"

namespace perfbench {

void set_loop_metrics(const LoopFigures& plain, const LoopFigures* traced,
                      Outcome& out) {
  if (traced == nullptr) {
    for (const std::string& name : e2e_loop_metrics()) {
      out.metrics.set(name, plain.at(name));
    }
    std::string note = "wall clock:";
    for (const std::string& name : wall_loop_metrics()) {
      char buf[96];
      std::snprintf(buf, sizeof buf, " %s %.2f", name.c_str(), plain.at(name));
      note += buf;
    }
    out.notes.push_back(note);
    return;
  }
  for (const std::string& name : wall_loop_metrics()) {
    out.metrics.set(name, plain.at(name));
  }
  for (const auto* list : {&e2e_loop_metrics(), &wall_loop_metrics()}) {
    for (const std::string& name : *list) {
      const double a = plain.at(name);
      out.metrics.set("overhead." + name,
                      a != 0.0 ? traced->at(name) / a - 1.0 : 0.0);
    }
  }
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

void Setup::report(Outcome& out) const {
  if (out.traced) {
    out.metrics.set("setup_wall_s", median(wall_s_));
    return;
  }
  out.metrics.set("setup_s", median(cpu_s_));
  char line[128];
  std::snprintf(line, sizeof line,
                "setup: %zu set-ups, median %.4f CPU s, %.4f wall s",
                cpu_s_.size(), median(cpu_s_), median(wall_s_));
  out.notes.emplace_back(line);
}

Timing timing(std::vector<double> us, const std::string& what,
              Outcome& out) {
  const Summary s = summarize(us);
  char line[160];
  std::snprintf(line, sizeof line, "%s: n=%zu, p50 %.2f us, p%g %.2f us",
                what.c_str(), s.count, s.p50, s.tail_q * 100.0, s.tail);
  out.notes.emplace_back(line);
  Timing t;
  t.p50 = s.p50;
  for (const double q : {0.9, 0.99}) {
    const auto v = supported_quantile(us, q);
    if (!v) {
      out.check(what + (q == 0.9 ? "_p90" : "_p99") + "_supported", false,
                std::to_string(s.count) + " samples, fewer than " +
                    std::to_string(kMinBeyond) + " beyond");
    }
    (q == 0.9 ? t.p90 : t.p99) = v.value_or(0.0);
  }
  return t;
}

namespace {

/// Cost of recording one span, measured on a private tracer.
double ns_per_span() {
  constexpr std::size_t kSpans = 200000;
  Tracer cal(true, span_names());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kSpans; ++i) Scope s(cal, kSpanPush, i);
  return seconds_since(t0) * 1e9 / static_cast<double>(kSpans);
}

}  // namespace

void set_trace_metrics(const Tracer& tracer, double loop_wall_s,
                       Outcome& out) {
  const std::vector<NameTotals> t =
      totals_by_name(tracer.spans(), tracer.names().size());
  const double root = static_cast<double>(t[kSpanWorkload].total_ns);
  const auto frac = [&](SpanName n) {
    return root > 0.0 ? static_cast<double>(t[n].self_ns) / root : 0.0;
  };
  MetricSink& m = out.metrics;
  m.set("self.workload_frac", frac(kSpanWorkload));
  m.set("self.flight_frac", frac(kSpanFlight));
  m.set("self.open_frac", frac(kSpanOpen));
  m.set("self.on_frames_frac", frac(kSpanOnFrames));
  m.set("self.generation_frac", frac(kSpanGeneration));
  m.set("self.push_frac", frac(kSpanPush));
  m.set("self.pump_frac", frac(kSpanPump));
  m.set("self.evict_idle_frac", frac(kSpanEvictIdle));
  m.set("self.store_put_frac", frac(kSpanStorePut));
  m.set("self.store_take_frac", frac(kSpanStoreTake));
  const double spans = static_cast<double>(tracer.spans().size());
  const double cost = ns_per_span();
  m.set("trace.spans", spans);
  m.set("trace.ns_per_span", cost);
  m.set("trace.overhead_frac", spans * cost * 1e-9 / loop_wall_s);
  out.check("trace_on_main_thread_only", tracer.foreign_thread_calls() == 0,
            std::to_string(tracer.foreign_thread_calls()) +
                " calls from other threads");
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
