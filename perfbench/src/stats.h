// Pure statistics helpers of the benchmark: medians and quartiles, the
// reported tail percentile, span self time, and the correctness tally.
// Header-only and free of staleflow dependencies so tests/selftest.cpp
// checks them on synthetic data.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for an even count). Requires a
/// nonempty sample.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles by the "exclusive" method of Python's
/// statistics.quantiles(values, n=4), the rule the benchmark's spread
/// check uses. Requires at least two values.
inline Quartiles quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    long j = i * m / 4;
    j = std::clamp(j, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                values[j] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Interquartile distance as a share of the median: the benchmark's
/// run-to-run spread figure.
inline double iqr_share(const std::vector<double>& values) {
  const Quartiles q = quartiles(values);
  return (q.q3 - q.q1) / q.q2;
}

/// Nearest rank (1-based) of the `permille`/1000 quantile among `n`
/// samples, in integers so 99.9% of 10000 is exactly rank 9990.
inline std::size_t nearest_rank(std::size_t permille, std::size_t n) {
  return std::clamp<std::size_t>((permille * n + 999) / 1000, 1, n);
}

/// A timing's reported tail: the highest percentile that still has at
/// least ten samples beyond it, with the sample count it came from.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t n = 0;
};

inline constexpr std::size_t kTailBeyond = 10;

/// Picks the tail percentile from {50, 90, 99}, up to `top_permille` —
/// the highest one with >= kTailBeyond samples ranked above it — and
/// returns its value. The ladder stops at p99: on a shared host p99.9 of
/// a sub-millisecond step measures other tenants' preemptions more than
/// this program. A sample too small for even p50 to qualify reports the
/// median rank. Requires a nonempty sample.
inline Tail tail(std::vector<double> values, std::size_t top_permille = 990) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  std::size_t chosen = 500;
  for (const std::size_t permille : {500u, 900u, 990u}) {
    if (permille <= top_permille &&
        n >= nearest_rank(permille, n) + kTailBeyond) {
      chosen = permille;
    }
  }
  Tail out;
  out.n = n;
  out.percentile = static_cast<double>(chosen) / 10.0;
  out.value = values[nearest_rank(chosen, n) - 1];
  return out;
}

/// Groups one run's per-callback values into steps of `cycle` callbacks
/// (a registry's scheduling cycle; 1 for a solo server): value i, the
/// work the i-th callback closes, joins step (i - 1) / cycle, and the
/// steps are the sums. Value 0 (set-up, closed by the first callback)
/// and a trailing partial cycle are left out. Requires cycle >= 1.
inline std::vector<double> per_cycle(const std::vector<double>& values,
                                     std::size_t cycle) {
  const std::size_t steps = values.empty() ? 0 : (values.size() - 1) / cycle;
  std::vector<double> out(steps, 0.0);
  for (std::size_t i = 1; i <= steps * cycle; ++i) {
    out[(i - 1) / cycle] += values[i];
  }
  return out;
}

/// A closed time interval [begin, end] in nanoseconds.
using Interval = std::pair<std::uint64_t, std::uint64_t>;

/// Length of the union of `children` clipped to [lo, hi]: the part of a
/// parent span its children cover, counting overlapping children once.
inline std::uint64_t covered_ns(std::vector<Interval> children,
                                std::uint64_t lo, std::uint64_t hi) {
  std::sort(children.begin(), children.end());
  std::uint64_t covered = 0;
  std::uint64_t frontier = lo;
  for (const auto& [begin, end] : children) {
    const std::uint64_t b = std::max(begin, frontier);
    const std::uint64_t e = std::min(end, hi);
    if (e > b) {
      covered += e - b;
      frontier = e;
    }
  }
  return covered;
}

/// A span's self time: its duration minus the union of its children.
inline std::uint64_t self_ns(const Interval& parent,
                             std::vector<Interval> children) {
  return (parent.second - parent.first) -
         covered_ns(std::move(children), parent.first, parent.second);
}

/// The correctness gate's tally. Every measured run contributes its
/// steps; a run whose digest (or recovery check) mismatched, or that
/// threw, fails all of them.
class Gate {
 public:
  void record(std::size_t steps, bool ok, const std::string& what) {
    attempted_ += steps;
    if (!ok) {
      failed_ += steps;
      if (errors_.size() < 8) errors_.push_back(what);
    }
  }

  /// A check that is not a step of its own (e.g. a side-pass recovery
  /// check): it fails the run without adding attempted steps.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed_checks_;
    if (errors_.size() < 8) errors_.push_back(what);
  }

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  double failed_frac() const noexcept {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  bool correct() const noexcept {
    return attempted_ > 0 && failed_ == 0 && failed_checks_ == 0;
  }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t failed_checks_ = 0;
  std::vector<std::string> errors_;
};

}  // namespace perfbench
