// Tests of the benchmark's own arithmetic: span self time, the
// percentile-with-ten-beyond rule, and the ping-pong replay index.
// Build and run: ctest in the perfbench build directory.

#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::kNoParent;
using perfbench::Span;

void self_time_with_overlapping_children() {
  // root [0,100] has children A [10,40] and B [30,60], which overlap, and
  // C [90,120], which sticks out of the root; A has a child [15,20].
  const std::vector<Span> spans = {
      {0, kNoParent, 1, 0, 100},  // 0 root
      {1, 0, 1, 10, 40},          // 1 A
      {1, 0, 1, 30, 60},          // 2 B
      {2, 0, 1, 90, 120},         // 3 C
      {3, 1, 1, 15, 20},          // 4 child of A
  };
  const std::vector<std::int64_t> self = perfbench::self_times(spans);
  CHECK(self[0] == 100 - (50 + 10));  // union [10,60] + [90,100]
  CHECK(self[1] == 30 - 5);
  CHECK(self[2] == 30);
  CHECK(self[3] == 30);
  CHECK(self[4] == 5);

  const auto totals = perfbench::totals_by_name(spans, 4);
  CHECK(totals[1].count == 2);
  CHECK(totals[1].total_ns == 60);
  CHECK(totals[1].self_ns == 55);
  // A child nested twice and a duplicate child interval count once.
  const std::vector<Span> dup = {
      {0, kNoParent, 0, 0, 10}, {1, 0, 0, 2, 4}, {1, 0, 0, 2, 4}};
  CHECK(perfbench::self_times(dup)[0] == 8);
}

void percentile_rule_at_small_counts() {
  using perfbench::highest_supported_percentile;
  using perfbench::samples_beyond;
  CHECK(samples_beyond(1000, 0.99) == 10);
  CHECK(samples_beyond(999, 0.99) == 9);
  CHECK(samples_beyond(20, 0.5) == 10);
  CHECK(samples_beyond(19, 0.5) == 9);
  CHECK(!highest_supported_percentile(0));
  CHECK(!highest_supported_percentile(19));
  CHECK(*highest_supported_percentile(20) == 0.5);
  CHECK(*highest_supported_percentile(99) == 0.5);
  CHECK(*highest_supported_percentile(100) == 0.9);
  CHECK(*highest_supported_percentile(999) == 0.9);
  CHECK(*highest_supported_percentile(1000) == 0.99);
  CHECK(*highest_supported_percentile(9999) == 0.99);
  CHECK(*highest_supported_percentile(10000) == 0.999);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  CHECK(perfbench::quantile(v, 0.5) == 50);
  CHECK(perfbench::quantile(v, 0.9) == 90);
  CHECK(!perfbench::supported_quantile(v, 0.99));
  CHECK(*perfbench::supported_quantile(v, 0.9) == 90);

  const perfbench::Summary s = perfbench::summarize({3, 1, 2});
  CHECK(s.count == 3 && s.p50 == 2 && s.tail_q == 0.0);
  CHECK(perfbench::median({4, 1, 3, 2}) == 2);  // lower middle
}

void pingpong_replay_index() {
  using perfbench::pingpong;
  const std::size_t expect[] = {0, 1, 2, 3, 2, 1, 0, 1, 2, 3, 2};
  for (std::size_t k = 0; k < sizeof expect / sizeof expect[0]; ++k) {
    CHECK(pingpong(k, 4) == expect[k]);
  }
  CHECK(pingpong(7, 1) == 0);
  CHECK(pingpong(5, 2) == 1);
}

}  // namespace

int main() {
  self_time_with_overlapping_children();
  percentile_rule_at_small_counts();
  pingpong_replay_index();
  if (failures == 0) std::printf("perfbench arithmetic: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
