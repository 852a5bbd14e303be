#pragma once
// Span tracing for the benchmark's traced run.
//
// Spans are recorded only in the benchmark's own code, around each public
// call into a layer of the library: workload -> flight/generation ->
// push/pump/evict_idle/on_frames -> store put/take. Each span carries its
// name, start, end, parent and an id shared by the spans of one input
// (session id << 32 | tick). Spans stay in memory until the run ends.
//
// Only the thread that created the Tracer records (the benchmark's main
// thread); a call arriving on another thread is counted, not traced, so
// the span stack never sees interleaved scopes.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

inline std::uint64_t input_id(std::uint64_t session, std::uint64_t tick) {
  return (session << 32) | (tick & 0xffffffffu);
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap each other
/// or stick out of the parent; only the covered part inside the parent
/// counts).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::uint32_t>> children(spans.size());
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != kNoParent && spans[i].parent < spans.size()) {
      children[spans[i].parent].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t p = 0; p < spans.size(); ++p) {
    const Span& s = spans[p];
    iv.clear();
    for (const std::uint32_t c : children[p]) {
      const std::int64_t b = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t e = std::min(spans[c].end_ns, s.end_ns);
      if (e > b) iv.emplace_back(b, e);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_b = 0;
    std::int64_t cur_e = std::numeric_limits<std::int64_t>::min();
    for (const auto& [b, e] : iv) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[p] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

/// Per-name totals over a span set.
struct NameTotals {
  std::size_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

inline std::vector<NameTotals> totals_by_name(const std::vector<Span>& spans,
                                              std::size_t names) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<NameTotals> out(names);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out.at(spans[i].name);
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return out;
}

class Tracer {
 public:
  /// `names` fixes the span-name table; span name i is names[i].
  Tracer(bool enabled, std::vector<std::string> names)
      : enabled_(enabled),
        owner_(std::this_thread::get_id()),
        names_(std::move(names)),
        origin_(std::chrono::steady_clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::size_t foreign_thread_calls() const {
    return foreign_.load(std::memory_order_relaxed);
  }

  /// Opens a span under the innermost open span; returns its index, or
  /// kNoParent when not recording (disabled, or called off the main thread).
  std::uint32_t begin(std::uint32_t name, std::uint64_t id) {
    if (!enabled_) return kNoParent;
    if (std::this_thread::get_id() != owner_) {
      foreign_.fetch_add(1, std::memory_order_relaxed);
      return kNoParent;
    }
    const auto index = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(Span{name, stack_.empty() ? kNoParent : stack_.back(),
                          id, now_ns(), 0});
    stack_.push_back(index);
    return index;
  }

  void end(std::uint32_t index) {
    if (index == kNoParent) return;
    spans_[index].end_ns = now_ns();
    stack_.pop_back();
  }

  /// Writes the spans as tab-separated text: name, id, parent index,
  /// start and end in ns since the tracer was created.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    os << "index\tname\tid\tparent\tstart_ns\tend_ns\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << i << '\t' << names_.at(s.name) << '\t' << s.id << '\t'
         << (s.parent == kNoParent ? -1 : static_cast<std::int64_t>(s.parent))
         << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
    return static_cast<bool>(os);
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::thread::id owner_;
  std::vector<std::string> names_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::atomic<std::size_t> foreign_{0};
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name, std::uint64_t id)
      : tracer_(tracer), index_(tracer.begin(name, id)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

}  // namespace perfbench
