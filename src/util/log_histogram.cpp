#include "util/log_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace staleflow {
namespace {

/// Raw bucket index of a non-negative finite double: its bit pattern
/// shifted so that each power-of-two octave contributes 2^bits linear
/// sub-buckets. Positive IEEE-754 doubles order exactly like their bit
/// patterns, so this is a monotone, exact, libm-free bucketing.
std::uint64_t raw_index(double value, unsigned sub_bucket_bits) noexcept {
  return std::bit_cast<std::uint64_t>(value) >> (52 - sub_bucket_bits);
}

double value_of_raw(std::uint64_t raw, unsigned sub_bucket_bits) noexcept {
  return std::bit_cast<double>(raw << (52 - sub_bucket_bits));
}

}  // namespace

LogHistogram::LogHistogram(double min_value, double max_value,
                           unsigned sub_bucket_bits)
    : min_value_(min_value),
      max_value_(max_value),
      sub_bucket_bits_(sub_bucket_bits) {
  if (!(min_value > 0.0) || !std::isfinite(min_value) ||
      !(max_value > min_value) || !std::isfinite(max_value)) {
    throw std::invalid_argument(
        "LogHistogram: need 0 < min_value < max_value, both finite");
  }
  if (sub_bucket_bits > 20) {
    throw std::invalid_argument("LogHistogram: sub_bucket_bits must be <= 20");
  }
  lo_raw_ = raw_index(min_value, sub_bucket_bits_);
  hi_raw_ = raw_index(max_value, sub_bucket_bits_);
  if (lo_raw_ == 0) {
    // Would fuse the underflow bucket with the first regular one and break
    // the bucket_lower/bucket_index round-trip.
    throw std::invalid_argument("LogHistogram: min_value too small");
  }
  // counts_ stays unallocated until the first record()/merge: a histogram
  // member on a result struct that never sees a sample (non-service sweep
  // cells) costs nothing.
}

void LogHistogram::ensure_counts() {
  if (counts_.empty()) counts_.assign(bucket_count(), 0);
}

void LogHistogram::record(double value, std::uint64_t count) {
  if (!(value >= 0.0) || !std::isfinite(value)) {
    throw std::invalid_argument(
        "LogHistogram::record: value must be finite and >= 0");
  }
  if (count == 0) return;
  count_value(value, count);
  sum_ += value * static_cast<double>(count);
}

void LogHistogram::record_tally(std::span<const double> values,
                                std::span<const std::uint64_t> counts,
                                double sum) {
  if (values.size() != counts.size()) {
    throw std::invalid_argument(
        "LogHistogram::record_tally: values and counts differ in size");
  }
  for (const double value : values) {
    if (!(value >= 0.0) || !std::isfinite(value)) {
      throw std::invalid_argument(
          "LogHistogram::record_tally: value must be finite and >= 0");
    }
  }
  if (!(sum >= 0.0)) {
    throw std::invalid_argument("LogHistogram::record_tally: sum must be >= 0");
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (counts[i] != 0) count_value(values[i], counts[i]);
  }
  sum_ += sum;
}

void LogHistogram::count_value(double value, std::uint64_t count) {
  ensure_counts();
  const std::size_t bucket = bucket_index(value);
  counts_[bucket] += count;
  if (count_ == 0) {
    min_ = max_ = value;
    first_ = last_ = bucket;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
    first_ = std::min(first_, bucket);
    last_ = std::max(last_, bucket);
  }
  count_ += count;
}

bool LogHistogram::same_config(const LogHistogram& other) const noexcept {
  return min_value_ == other.min_value_ && max_value_ == other.max_value_ &&
         sub_bucket_bits_ == other.sub_bucket_bits_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (!same_config(other)) {
    throw std::invalid_argument(
        "LogHistogram::merge: configuration mismatch");
  }
  if (other.count_ == 0) return;
  ensure_counts();  // other.count_ > 0 implies other.counts_ is allocated
  // Only other's occupied range holds counts (a self-merge doubles it).
  for (std::size_t b = other.first_; b <= other.last_; ++b) {
    counts_[b] += other.counts_[b];
  }
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
    first_ = other.first_;
    last_ = other.last_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    first_ = std::min(first_, other.first_);
    last_ = std::max(last_, other.last_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::reset() noexcept {
  if (count_ != 0) {
    std::fill(counts_.begin() + static_cast<std::ptrdiff_t>(first_),
              counts_.begin() + static_cast<std::ptrdiff_t>(last_ + 1), 0);
  }
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double LogHistogram::min() const {
  if (count_ == 0) throw std::logic_error("LogHistogram::min: empty");
  return min_;
}

double LogHistogram::max() const {
  if (count_ == 0) throw std::logic_error("LogHistogram::max: empty");
  return max_;
}

double LogHistogram::mean() const {
  if (count_ == 0) throw std::logic_error("LogHistogram::mean: empty");
  return sum_ / static_cast<double>(count_);
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) {
    throw std::invalid_argument("LogHistogram::quantile: empty histogram");
  }
  if (!(q >= 0.0) || !(q <= 1.0)) {
    throw std::invalid_argument("LogHistogram::quantile: q not in [0,1]");
  }
  // Endpoints are the exact recorded extremes, not a bucket midpoint —
  // the same endpoint contract as sorted_quantile.
  if (q == 0.0) return min_;
  if (q == 1.0) return max_;
  // Rank of the requested order statistic, 1-based.
  const double scaled = q * static_cast<double>(count_);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(scaled)));

  std::uint64_t seen = 0;
  std::size_t bucket = last_;  // rank <= count_: the scan always stops
  for (std::size_t b = first_; b <= last_; ++b) {
    seen += counts_[b];
    if (seen >= rank) {
      bucket = b;
      break;
    }
  }

  double representative;
  if (bucket == 0) {
    representative = min_;  // underflow: below the tracked range
  } else if (bucket + 1 == counts_.size()) {
    representative = max_;  // overflow: above the tracked range
  } else {
    const double lo = bucket_lower(bucket);
    const double hi = bucket_upper(bucket);
    representative = lo + (hi - lo) / 2.0;
  }
  return std::clamp(representative, min_, max_);
}

std::size_t LogHistogram::bucket_index(double value) const {
  // Normalise -0.0: its sign-bit pattern would otherwise order above
  // every positive value and land the smallest possible sample in the
  // overflow bucket.
  if (value == 0.0) return 0;  // zero is always below min_value (> 0)
  const std::uint64_t raw = raw_index(value, sub_bucket_bits_);
  if (raw < lo_raw_) return 0;
  if (raw > hi_raw_) return bucket_count() - 1;
  return static_cast<std::size_t>(raw - lo_raw_) + 1;
}

double LogHistogram::bucket_lower(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_lower: bad bucket");
  }
  if (b == 0) return 0.0;
  return value_of_raw(lo_raw_ + (b - 1), sub_bucket_bits_);
}

double LogHistogram::bucket_upper(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_upper: bad bucket");
  }
  if (b + 1 == bucket_count()) {
    return std::numeric_limits<double>::infinity();
  }
  return bucket_lower(b + 1);
}

std::uint64_t LogHistogram::bucket_value(std::size_t b) const {
  if (b >= bucket_count()) {
    throw std::out_of_range("LogHistogram::bucket_value: bad bucket");
  }
  return counts_.empty() ? 0 : counts_[b];
}

LogHistogram LogHistogram::from_state(
    double min_value, double max_value, unsigned sub_bucket_bits,
    std::span<const std::pair<std::uint64_t, std::uint64_t>> buckets,
    double min, double max, double sum) {
  LogHistogram hist(min_value, max_value, sub_bucket_bits);
  for (const double stat : {min, max, sum}) {
    if (!(stat >= 0.0) || !std::isfinite(stat)) {
      throw std::invalid_argument(
          "LogHistogram::from_state: min, max and sum must be finite and "
          ">= 0");
    }
  }
  if (buckets.empty()) return hist;
  hist.ensure_counts();
  hist.first_ = hist.bucket_count() - 1;
  for (const auto& [bucket, count] : buckets) {
    if (bucket >= hist.bucket_count()) {
      throw std::invalid_argument(
          "LogHistogram::from_state: bucket index out of range");
    }
    if (count == 0 || hist.counts_[bucket] != 0) {
      throw std::invalid_argument(
          "LogHistogram::from_state: zero or repeated bucket entry");
    }
    if (hist.count_ + count < count) {  // would wrap to a false "empty"
      throw std::invalid_argument(
          "LogHistogram::from_state: total count overflows");
    }
    hist.counts_[bucket] = count;
    hist.count_ += count;
    hist.first_ = std::min(hist.first_, static_cast<std::size_t>(bucket));
    hist.last_ = std::max(hist.last_, static_cast<std::size_t>(bucket));
  }
  if (!(min <= max)) {
    throw std::invalid_argument("LogHistogram::from_state: min > max");
  }
  // The extremes bound the occupied range, as in every recorded
  // histogram; a state that breaks this would report a quantile(0) or
  // quantile(1) outside its own buckets.
  if (hist.bucket_index(min) != hist.first_ ||
      hist.bucket_index(max) != hist.last_) {
    throw std::invalid_argument(
        "LogHistogram::from_state: min or max outside the extreme buckets");
  }
  hist.min_ = min;
  hist.max_ = max;
  hist.sum_ = sum;
  return hist;
}

bool operator==(const LogHistogram& a, const LogHistogram& b) {
  if (!a.same_config(b) || a.count_ != b.count_ || a.sum_ != b.sum_) {
    return false;
  }
  // Two empty histograms are equal whether or not their bucket arrays
  // have been (lazily) allocated yet.
  if (a.count_ == 0) return true;
  // Outside the occupied range every bucket is zero.
  const auto first = static_cast<std::ptrdiff_t>(a.first_);
  const auto end = static_cast<std::ptrdiff_t>(a.last_ + 1);
  return a.min_ == b.min_ && a.max_ == b.max_ && a.first_ == b.first_ &&
         a.last_ == b.last_ &&
         std::equal(a.counts_.begin() + first, a.counts_.begin() + end,
                    b.counts_.begin() + first);
}

}  // namespace staleflow
