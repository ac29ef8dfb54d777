// Fixed-bucket logarithmic latency histograms (HdrHistogram-style, no
// dependencies).
//
// A LogHistogram records non-negative doubles into buckets whose
// boundaries are spaced logarithmically: each power-of-two octave is cut
// into 2^sub_bucket_bits linear sub-buckets, so the relative bucket width
// is at most 2^-sub_bucket_bits everywhere in the tracked range. Bucket
// indices are computed by integer arithmetic on the IEEE-754 bit pattern
// (positive doubles order like their bits), never through log()/exp(), so
// bucketing is exact, platform-stable and byte-reproducible — the
// property the service digest and the sweep CSV contract rely on.
//
// Histograms with the same configuration merge by adding counts; merging
// is commutative and associative, which is what lets per-shard recordings
// combine into per-epoch distributions, epochs into runs, and sweep cells
// into capacity-table rows without ever storing raw samples. Quantiles
// are extracted exactly from the counts: the returned value is the
// midpoint of the bucket holding the requested rank (clamped to the
// recorded min/max, so quantile(0) and quantile(1) are the exact
// extremes), hence within one bucket width of the true sorted-sample
// quantile.
//
// Cost model: the default geometry has 1,916 buckets, but a histogram
// tracks its occupied bucket range [first, last] (the buckets of its
// min and max), so reset(), merge(), quantile() and for_each_bucket()
// cost only the buckets between the recorded extremes — a served
// sub-batch holds at most one value per path, however wide the
// geometry. Only the first record/merge (the lazy allocation) and a copy
// touch the whole array.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace staleflow {

class LogHistogram {
 public:
  /// Tracks values in [min_value, max_value] with 2^sub_bucket_bits
  /// linear sub-buckets per octave (default 32: <= 3.2% relative bucket
  /// width). Values below/above the range land in dedicated underflow /
  /// overflow buckets and are still counted (and still drive the exact
  /// min/max). Requires 0 < min_value < max_value, both finite, and
  /// sub_bucket_bits in [0, 20]; throws std::invalid_argument otherwise.
  explicit LogHistogram(double min_value = 1e-9, double max_value = 1e9,
                        unsigned sub_bucket_bits = 5);

  /// Records one (or `count`) occurrences of `value`. Negative, NaN and
  /// infinite values are rejected with std::invalid_argument (a latency
  /// can be zero but never negative or undefined).
  void record(double value, std::uint64_t count = 1);

  /// Records a tally: counts[i] occurrences of values[i] for every i (the
  /// spans must have the same size), where `sum` is the caller's running
  /// sum of those occurrences, added up in the order they occurred.
  /// Counts, min and max do not depend on that order, so on an empty
  /// histogram the result is operator==-equal to calling record(v) once
  /// per occurrence in that order — the serve loop tallies its queries by
  /// path and records once per sub-batch. Every value (counted or not)
  /// must be finite and >= 0, and `sum` >= 0; otherwise throws
  /// std::invalid_argument and records nothing.
  void record_tally(std::span<const double> values,
                    std::span<const std::uint64_t> counts, double sum);

  /// Adds `other`'s counts into this histogram. Both must share the exact
  /// same configuration (min, max, sub_bucket_bits); throws
  /// std::invalid_argument on a mismatch.
  void merge(const LogHistogram& other);

  /// Drops every recorded value, keeping the configuration (no
  /// reallocation — for per-epoch reuse in serving loops). Zeroes only
  /// the occupied range.
  void reset() noexcept;

  /// Total number of recorded values.
  std::uint64_t count() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Exact smallest / largest recorded value. Requires count() > 0.
  double min() const;
  double max() const;

  /// Sum of recorded values, accumulated in recording order (0 if empty).
  double sum() const noexcept { return sum_; }
  /// sum() / count(). Requires count() > 0.
  double mean() const;

  /// The q-quantile, q in [0, 1]. quantile(0) == min() and
  /// quantile(1) == max() exactly (the recorded extremes, as in
  /// sorted_quantile); an interior q returns the midpoint of the bucket
  /// containing rank ceil(q * count), clamped to [min(), max()], hence
  /// within one bucket width of the sorted-sample quantile. Requires
  /// count() > 0 and q in [0, 1]; throws std::invalid_argument otherwise.
  double quantile(double q) const;

  // ---- bucket geometry (exposed for tests and exports) ----

  /// Number of buckets, including the underflow (first) and overflow
  /// (last) buckets. Pure geometry — defined whether or not anything has
  /// been recorded (the bucket array itself is allocated lazily on first
  /// record/merge, so unused histogram members cost nothing).
  std::size_t bucket_count() const noexcept {
    return static_cast<std::size_t>(hi_raw_ - lo_raw_) + 3;
  }

  /// Bucket that `value` (>= 0, finite) falls into.
  std::size_t bucket_index(double value) const;

  /// Inclusive lower bound of bucket b: the smallest value mapping to it
  /// (0 for the underflow bucket). Requires b < bucket_count().
  double bucket_lower(std::size_t b) const;

  /// Exclusive upper bound of bucket b (+infinity for the overflow
  /// bucket). Requires b < bucket_count().
  double bucket_upper(std::size_t b) const;

  /// Count recorded in bucket b. Requires b < bucket_count().
  std::uint64_t bucket_value(std::size_t b) const;

  /// Calls f(bucket, count) for every nonzero bucket in increasing bucket
  /// order (the pairs from_state takes), visiting only the occupied range.
  template <class F>
  void for_each_bucket(F&& f) const {
    if (count_ == 0) return;
    for (std::size_t b = first_; b <= last_; ++b) {
      if (counts_[b] != 0) f(b, counts_[b]);
    }
  }

  double min_value() const noexcept { return min_value_; }
  double max_value() const noexcept { return max_value_; }
  unsigned sub_bucket_bits() const noexcept { return sub_bucket_bits_; }

  // ---- checkpoint/restore (the recovery WAL path) ----

  /// Rebuilds a histogram from previously exported state: the
  /// configuration, the nonzero (bucket index, count) pairs, and the
  /// exact min/max/sum the accessors reported. The result compares
  /// operator==-equal to the original — bucket counts, count, min, max
  /// and sum restored bit-for-bit — so merges and quantiles continue
  /// exactly. `min`/`max`/`sum` are checked but otherwise ignored when
  /// `buckets` is empty (an empty histogram has no extremes). Throws
  /// std::invalid_argument on a bad configuration, an out-of-range or
  /// repeated bucket index, a zero per-bucket count, a total count past
  /// 2^64 - 1, a negative or non-finite min, max or sum, or (when
  /// nonempty) min > max, a min outside the lowest nonzero bucket or a
  /// max outside the highest — every recorded histogram keeps its
  /// extremes there, and quantile(0) / quantile(1) would otherwise
  /// contradict the buckets.
  static LogHistogram from_state(
      double min_value, double max_value, unsigned sub_bucket_bits,
      std::span<const std::pair<std::uint64_t, std::uint64_t>> buckets,
      double min, double max, double sum);

  /// True when both histograms have the same configuration AND the same
  /// counts, min, max and sum — i.e. they are observationally identical.
  friend bool operator==(const LogHistogram& a, const LogHistogram& b);

 private:
  bool same_config(const LogHistogram& other) const noexcept;
  void ensure_counts();
  /// Adds `count` (> 0) occurrences of a checked value to the buckets,
  /// count and extremes; the caller updates the sum.
  void count_value(double value, std::uint64_t count);

  double min_value_ = 0.0;
  double max_value_ = 0.0;
  unsigned sub_bucket_bits_ = 0;
  std::uint64_t lo_raw_ = 0;  // raw bit-index of the first regular bucket
  std::uint64_t hi_raw_ = 0;  // raw bit-index of the last regular bucket

  std::vector<std::uint64_t> counts_;  // [underflow, regular..., overflow]
  // The occupied range: when count_ > 0, first_ and last_ are the lowest
  // and highest nonzero buckets (those of min_ and max_); when count_ ==
  // 0, every bucket is zero and the range means nothing.
  std::size_t first_ = 0;
  std::size_t last_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace staleflow
