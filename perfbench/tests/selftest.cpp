// Self-test of the benchmark's statistics helpers (src/stats.h):
// quartiles as Python's statistics.quantiles(n=4) gives them, the
// tail-percentile rule, the grouping of callbacks into scheduling-cycle
// steps, span self time over nested and overlapping children, and the
// correctness gate's failed-step tally.
//
//   python3 perfbench/run.py --selftest
//
// builds and runs it; exit code 0 means every check passed.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::printf("FAILED line %d: %s\n", line, what);
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_median_and_quartiles() {
  using perfbench::median;
  using perfbench::quartiles;
  CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(median({4.0, 1.0, 3.0, 2.0}), 2.5));
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  const auto q10 = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(near(q10.q1, 2.75) && near(q10.q2, 5.5) && near(q10.q3, 8.25));
  // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
  const auto q5 = quartiles({5, 4, 3, 2, 1});
  CHECK(near(q5.q1, 1.5) && near(q5.q2, 3.0) && near(q5.q3, 4.5));
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2, 1});
  CHECK(near(q2.q1, 0.75) && near(q2.q2, 1.5) && near(q2.q3, 2.25));
  CHECK(near(perfbench::iqr_share({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
             (8.25 - 2.75) / 5.5));
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void test_tail_rule() {
  using perfbench::tail;
  // 1000 samples: p99 has exactly 10 beyond (ranks 991..1000).
  const auto t1000 = tail(ramp(1000));
  CHECK(near(t1000.percentile, 99.0) && near(t1000.value, 990.0));
  CHECK(t1000.n == 1000);
  // 999 samples: p99 rank is 990, 9 beyond -> falls back to p90.
  const auto t999 = tail(ramp(999));
  CHECK(near(t999.percentile, 90.0));
  // 100000 samples: p99 is the top of the ladder (p99.9 is not tried).
  const auto t100k = tail(ramp(100000));
  CHECK(near(t100k.percentile, 99.0) && near(t100k.value, 99000.0));
  // 100 samples: p90 rank 90, 10 beyond; p99 has 1.
  CHECK(near(tail(ramp(100)).percentile, 90.0));
  // Too few for p50 (rank 5 of 9 leaves 4 beyond): the median.
  const auto t9 = tail(ramp(9));
  CHECK(near(t9.percentile, 50.0) && near(t9.value, 5.0));
  // Order of the input does not matter.
  std::vector<double> reversed = ramp(1000);
  std::reverse(reversed.begin(), reversed.end());
  CHECK(near(tail(reversed).value, 990.0));
  // A ladder capped at p90 stops there however many samples qualify.
  const auto capped = tail(ramp(1000), 900);
  CHECK(near(capped.percentile, 90.0) && near(capped.value, 900.0));
  CHECK(near(tail(ramp(9), 900).percentile, 50.0));
}

void test_per_cycle() {
  using perfbench::per_cycle;
  // Value 0 is set-up; cycles of two sum values 1+2, 3+4; 5 is partial.
  const auto two = per_cycle({100, 1, 2, 3, 4, 5}, 2);
  CHECK(two.size() == 2 && near(two[0], 3) && near(two[1], 7));
  // A cycle of one keeps every value after set-up.
  const auto one = per_cycle({100, 1, 2, 3}, 1);
  CHECK(one.size() == 3 && near(one[0], 1) && near(one[2], 3));
  // Alternating light and heavy rounds give equal cycles.
  const auto mixed = per_cycle({9, 1, 5, 1, 5, 1, 5}, 2);
  CHECK(mixed.size() == 3 && near(mixed[0], 6) && near(mixed[2], 6));
  CHECK(per_cycle({}, 2).empty() && per_cycle({7, 1}, 2).empty());
}

void test_self_time() {
  using perfbench::Interval;
  using perfbench::self_ns;
  // Parent [0, 100]: children [10, 30] and [20, 50] overlap (union 40),
  // [60, 70] is disjoint (10), [90, 120] sticks out (clipped to 10).
  CHECK(self_ns({0, 100}, {{10, 30}, {20, 50}, {60, 70}, {90, 120}}) ==
        100 - 40 - 10 - 10);
  // A child nested inside another counts once.
  CHECK(self_ns({0, 100}, {{10, 90}, {20, 30}}) == 20);
  // No children: all self time. Children covering everything: none.
  CHECK(self_ns({5, 25}, {}) == 20);
  CHECK(self_ns({5, 25}, {{0, 10}, {10, 30}}) == 0);
  // Unsorted input, parallel identical children.
  CHECK(self_ns({0, 50}, {{30, 40}, {0, 10}, {0, 10}}) == 30);
}

void test_gate() {
  perfbench::Gate gate;
  CHECK(!gate.correct());  // nothing attempted is not a pass
  gate.record(100, true, "run 1");
  CHECK(gate.correct() && gate.failed() == 0 && near(gate.failed_frac(), 0));
  // A digest mismatch fails every step of its run.
  const std::uint64_t expected = 0xabc;
  const std::uint64_t observed = 0xabd;
  gate.record(50, observed == expected, "run 2: digest mismatch");
  CHECK(!gate.correct());
  CHECK(gate.attempted() == 150 && gate.failed() == 50);
  CHECK(near(gate.failed_frac(), 50.0 / 150.0));
  CHECK(gate.errors().size() == 1);

  // A failed side check (e.g. WAL recovery) fails the run without steps.
  perfbench::Gate recovered;
  recovered.record(10, true, "run");
  recovered.check(false, "recover_wal: no clean shutdown");
  CHECK(!recovered.correct() && recovered.failed() == 0);
  CHECK(recovered.errors().size() == 1);
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_rule();
  test_per_cycle();
  test_self_time();
  test_gate();
  if (g_failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
