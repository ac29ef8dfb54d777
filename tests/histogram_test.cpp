// Property tests for LogHistogram: record/merge commutativity, quantile
// monotonicity, bucket-boundary round-trips, agreement with exact sorted
// quantiles within one bucket width, and the configuration contract; plus
// a differential test of the occupied-range bookkeeping against a
// reference that walks every bucket.
// Runs under the `histogram` ctest label so the ASan+UBSan job can target
// it directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/log_histogram.h"
#include "util/rng.h"
#include "util/statistics.h"

namespace staleflow {
namespace {

/// Log-uniform samples spanning most of the default tracked range, plus a
/// few adversarial values (zero, the range edges, out-of-range tails).
std::vector<double> sample_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> values;
  values.reserve(n + 6);
  for (std::size_t i = 0; i < n; ++i) {
    values.push_back(std::pow(10.0, rng.uniform(-6.0, 6.0)));
  }
  values.insert(values.end(),
                {0.0, 1e-12, 1e-9, 1e9, 5e12, 123.456});
  return values;
}

TEST(LogHistogram, RejectsBadConfigurationAndValues) {
  EXPECT_THROW(LogHistogram(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, 2.0, 21), std::invalid_argument);
  EXPECT_THROW(LogHistogram(1.0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);

  LogHistogram hist;
  EXPECT_THROW(hist.record(-1.0), std::invalid_argument);
  EXPECT_THROW(hist.record(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(hist.record(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_TRUE(hist.empty());
}

TEST(LogHistogram, EmptyHistogramHasNoStatistics) {
  const LogHistogram hist;
  EXPECT_TRUE(hist.empty());
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.0);
  EXPECT_THROW(hist.min(), std::logic_error);
  EXPECT_THROW(hist.max(), std::logic_error);
  EXPECT_THROW(hist.mean(), std::logic_error);
  EXPECT_THROW(hist.quantile(0.5), std::invalid_argument);
}

TEST(LogHistogram, NegativeZeroIsAnUnderflowSampleNotAnOverflow) {
  // -0.0 passes the (value >= 0) guard but its sign-bit pattern would
  // order above every positive double; it must land in the underflow
  // bucket like +0.0, keeping quantile(0) == min().
  LogHistogram hist;
  hist.record(-0.0);
  hist.record(5.0);
  EXPECT_EQ(hist.bucket_index(-0.0), hist.bucket_index(0.0));
  EXPECT_EQ(hist.bucket_value(0), 1u);
  EXPECT_EQ(hist.bucket_value(hist.bucket_count() - 1), 0u);
  EXPECT_EQ(hist.quantile(0.0), hist.min());
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_LT(hist.quantile(0.25), 1.0);  // the zero, not the 5.0
}

TEST(LogHistogram, GeometryIsDefinedBeforeFirstRecord) {
  // The bucket array allocates lazily; the geometry accessors must not
  // depend on it.
  const LogHistogram hist(1e-3, 1e3, 4);
  EXPECT_GT(hist.bucket_count(), 2u);
  EXPECT_EQ(hist.bucket_value(1), 0u);
  EXPECT_GT(hist.bucket_upper(1), hist.bucket_lower(1));
  EXPECT_EQ(hist.bucket_index(1.0),
            hist.bucket_index(hist.bucket_lower(hist.bucket_index(1.0))));
}

TEST(LogHistogram, CountsMinMaxMeanAreExact) {
  LogHistogram hist;
  hist.record(3.0);
  hist.record(1.0, 2);
  hist.record(0.0);  // underflow bucket, still drives min
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
  EXPECT_DOUBLE_EQ(hist.sum(), 5.0);
  EXPECT_DOUBLE_EQ(hist.mean(), 1.25);
  EXPECT_THROW(hist.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(hist.quantile(1.1), std::invalid_argument);
}

/// Every bucket boundary maps back to its own bucket, and the value just
/// below it (previous representable double) maps to the previous bucket:
/// the bucket geometry is exact, with no log()/exp() rounding slop.
TEST(LogHistogram, BucketBoundariesRoundTrip) {
  const LogHistogram hist(1e-6, 1e6, 4);
  ASSERT_GT(hist.bucket_count(), 3u);
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    const double lower = hist.bucket_lower(b);
    if (std::isinf(lower)) continue;  // overflow bound may be +inf
    EXPECT_EQ(hist.bucket_index(lower), b) << "bucket " << b;
    EXPECT_LT(lower, hist.bucket_upper(b));
    if (b > 1) {
      const double below = std::nextafter(lower, 0.0);
      EXPECT_EQ(hist.bucket_index(below), b - 1) << "bucket " << b;
    }
  }
  // Buckets tile the range: upper(b) == lower(b+1).
  for (std::size_t b = 0; b + 1 < hist.bucket_count(); ++b) {
    EXPECT_EQ(hist.bucket_upper(b), hist.bucket_lower(b + 1));
  }
  EXPECT_THROW(hist.bucket_lower(hist.bucket_count()), std::out_of_range);
}

/// Relative bucket width within the tracked range is bounded by
/// 2^-sub_bucket_bits: the resolution guarantee quantiles inherit.
TEST(LogHistogram, RelativeBucketWidthIsBounded) {
  const unsigned bits = 5;
  const LogHistogram hist(1e-3, 1e3, bits);
  const double max_relative = 1.0 / static_cast<double>(1u << bits);
  for (std::size_t b = 1; b + 1 < hist.bucket_count(); ++b) {
    const double lo = hist.bucket_lower(b);
    const double width = hist.bucket_upper(b) - lo;
    EXPECT_LE(width / lo, max_relative * (1.0 + 1e-12)) << "bucket " << b;
  }
}

/// Recording a sample set in any order, or split across histograms merged
/// in either direction, yields the identical histogram.
TEST(LogHistogram, RecordAndMergeAreCommutative) {
  const std::vector<double> values = sample_values(2000, 99);

  LogHistogram forward, backward;
  for (const double v : values) forward.record(v);
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    backward.record(*it);
  }
  // Counts, extremes and bucket contents are order-independent (the sum is
  // compared via its value; addition order never moves a count).
  EXPECT_EQ(forward.count(), backward.count());
  EXPECT_DOUBLE_EQ(forward.min(), backward.min());
  EXPECT_DOUBLE_EQ(forward.max(), backward.max());
  for (std::size_t b = 0; b < forward.bucket_count(); ++b) {
    EXPECT_EQ(forward.bucket_value(b), backward.bucket_value(b));
  }

  // a.merge(b) == b.merge(a), for every split point of the sample set.
  for (const std::size_t split : {std::size_t{0}, values.size() / 3,
                                  values.size() / 2, values.size()}) {
    LogHistogram a, b;
    for (std::size_t i = 0; i < split; ++i) a.record(values[i]);
    for (std::size_t i = split; i < values.size(); ++i) b.record(values[i]);
    LogHistogram ab = a;
    ab.merge(b);
    LogHistogram ba = b;
    ba.merge(a);
    EXPECT_TRUE(ab == ba) << "split " << split;
    EXPECT_EQ(ab.count(), values.size());
    EXPECT_DOUBLE_EQ(ab.quantile(0.5), ba.quantile(0.5));
    EXPECT_DOUBLE_EQ(ab.quantile(0.99), ba.quantile(0.99));
  }
}

/// A tally — counts per distinct value plus the in-order running sum — is
/// exactly the histogram that per-value record() calls in that order
/// build: same buckets, count, extremes and sum bits (operator==), hence
/// the same quantiles. This is how the serve loop records its queries.
TEST(LogHistogram, RecordTallyEqualsPerValueRecords) {
  // A handful of distinct values, like a board's path latencies: in and
  // out of range, zero, and two values sharing one bucket.
  const std::vector<double> values = {0.0,  1e-12, 0.25, 0.2500001,
                                      1.75, 3.5,   1e9,  5e12};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    LogHistogram per_value;
    std::vector<std::uint64_t> counts(values.size(), 0);
    double sum = 0.0;
    for (int q = 0; q < 5000; ++q) {
      const std::size_t i = rng.below(values.size() - (seed == 3 ? 2 : 0));
      per_value.record(values[i]);
      ++counts[i];
      sum += values[i];
    }
    LogHistogram tally;
    tally.record_tally(values, counts, sum);
    EXPECT_TRUE(tally == per_value) << "seed " << seed;
    EXPECT_EQ(tally.sum(), per_value.sum());
    EXPECT_EQ(tally.min(), per_value.min());
    EXPECT_EQ(tally.max(), per_value.max());
    for (const double q : {0.0, 0.5, 0.99, 0.999, 1.0}) {
      EXPECT_EQ(tally.quantile(q), per_value.quantile(q)) << "q " << q;
    }
  }

  // An all-zero tally records nothing.
  LogHistogram none;
  none.record_tally(values, std::vector<std::uint64_t>(values.size(), 0),
                    0.0);
  EXPECT_TRUE(none == LogHistogram());
}

TEST(LogHistogram, RecordTallyRejectsBadInputAndRecordsNothing) {
  const std::vector<std::uint64_t> counts = {3, 1};
  const auto rejects = [&counts](std::vector<double> values, double sum) {
    LogHistogram hist;
    EXPECT_THROW(hist.record_tally(values, counts, sum),
                 std::invalid_argument);
    EXPECT_TRUE(hist == LogHistogram());  // untouched
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects({1.0, nan}, 3.0);
  rejects({-1.0, 2.0}, 1.0);
  rejects({1.0, inf}, 3.0);
  rejects({1.0, 2.0}, -1.0);
  rejects({1.0, 2.0}, nan);
  // A value is checked even when its count is zero, as record() checks.
  LogHistogram hist;
  EXPECT_THROW(hist.record_tally(std::vector<double>{1.0, nan},
                                 std::vector<std::uint64_t>{1, 0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(hist.record_tally(std::vector<double>{1.0},
                                 std::vector<std::uint64_t>{1, 0}, 1.0),
               std::invalid_argument);
  EXPECT_TRUE(hist.empty());
}

TEST(LogHistogram, MergeRequiresIdenticalConfiguration) {
  LogHistogram a(1e-6, 1e6, 5);
  LogHistogram b(1e-6, 1e6, 4);
  LogHistogram c(1e-5, 1e6, 5);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
  EXPECT_THROW(a.merge(c), std::invalid_argument);
  LogHistogram d(1e-6, 1e6, 5);
  d.record(1.0);
  a.merge(d);  // same config merges fine
  EXPECT_EQ(a.count(), 1u);
}

TEST(LogHistogram, QuantilesAreMonotoneInQ) {
  LogHistogram hist;
  for (const double v : sample_values(5000, 7)) hist.record(v);
  double previous = hist.quantile(0.0);
  for (double q = 0.05; q <= 1.0 + 1e-12; q += 0.05) {
    const double current = hist.quantile(std::min(q, 1.0));
    EXPECT_GE(current, previous) << "q = " << q;
    previous = current;
  }
}

TEST(LogHistogram, ExtremeQuantilesAreExactMinAndMax) {
  LogHistogram hist;
  const std::vector<double> values = sample_values(1000, 3);
  for (const double v : values) hist.record(v);
  const double lo = *std::min_element(values.begin(), values.end());
  const double hi = *std::max_element(values.begin(), values.end());
  EXPECT_EQ(hist.quantile(0.0), lo);
  EXPECT_EQ(hist.quantile(1.0), hi);

  // Also with every sample strictly inside the tracked range (no
  // under/overflow sentinels whose representatives happen to be the
  // extremes): the endpoints must still be the exact samples, not the
  // midpoints of their buckets.
  LogHistogram interior;
  interior.record(1.0);
  interior.record(1.03);  // same bucket as 1.0 at 32 sub-buckets/octave
  interior.record(7.25);
  EXPECT_EQ(interior.quantile(0.0), 1.0);
  EXPECT_EQ(interior.quantile(1.0), 7.25);

  LogHistogram single;
  single.record(42.5);
  for (const double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.quantile(q), 42.5) << "q = " << q;
  }
}

/// The histogram quantile lands in the same bucket as the exact order
/// statistic it targets — i.e. it agrees with the sorted-sample quantile
/// to within one bucket width.
TEST(LogHistogram, AgreesWithSortedQuantilesWithinOneBucket) {
  LogHistogram hist;
  std::vector<double> values = sample_values(4000, 21);
  for (const double v : values) hist.record(v);
  std::sort(values.begin(), values.end());

  for (const double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                         0.999, 1.0}) {
    // The order statistic the histogram targets: rank ceil(q * n).
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(q * static_cast<double>(values.size()))));
    const double exact = values[rank - 1];
    const double approx = hist.quantile(q);
    const std::size_t bucket = hist.bucket_index(exact);
    const double width =
        std::isinf(hist.bucket_upper(bucket))
            ? 0.0  // overflow bucket: representative is the exact max
            : hist.bucket_upper(bucket) - hist.bucket_lower(bucket);
    EXPECT_NEAR(approx, exact, width) << "q = " << q;

    // And against the interpolating sorted_quantile, which may straddle
    // two adjacent order statistics: two bucket widths bound it.
    const double interpolated = sorted_quantile(values, q);
    const std::size_t ibucket = hist.bucket_index(interpolated);
    const double iwidth =
        std::isinf(hist.bucket_upper(ibucket))
            ? 0.0
            : hist.bucket_upper(ibucket) - hist.bucket_lower(ibucket);
    EXPECT_NEAR(approx, interpolated, width + iwidth) << "q = " << q;
  }
}

/// Out-of-range recordings land in the underflow/overflow buckets and
/// keep quantiles clamped to real observations.
TEST(LogHistogram, UnderflowAndOverflowAreClampedToObservations) {
  LogHistogram hist(1.0, 100.0, 4);
  hist.record(0.001, 10);   // below min_value
  hist.record(1e6, 10);     // above max_value
  EXPECT_EQ(hist.bucket_value(0), 10u);
  EXPECT_EQ(hist.bucket_value(hist.bucket_count() - 1), 10u);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(hist.quantile(0.25), 0.001);
  EXPECT_DOUBLE_EQ(hist.quantile(0.75), 1e6);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1e6);
}

// ------------------------------------------- sorted_quantile edge cases
//
// Pinned here (rather than util_test) because the histogram comparison
// tests above are what surfaced them: the histogram's exact-endpoint
// contract only matches sorted_quantile if its own edges are exact.

// ------------------------------------------- differential: range tracking

/// The obvious histogram: every operation walks every bucket, as
/// LogHistogram did before it tracked its occupied range. The geometry
/// (bucket_index / bucket_lower / bucket_upper) is LogHistogram's own, so
/// a mismatch can only come from the range bookkeeping.
struct ReferenceHistogram {
  explicit ReferenceHistogram(const LogHistogram& geometry)
      : geometry(geometry), counts(geometry.bucket_count(), 0) {}

  void count_value(double value, std::uint64_t n) {
    counts[geometry.bucket_index(value)] += n;
    min = count == 0 ? value : std::min(min, value);
    max = count == 0 ? value : std::max(max, value);
    count += n;
  }
  void record(double value, std::uint64_t n) {
    if (n == 0) return;
    count_value(value, n);
    sum += value * static_cast<double>(n);
  }
  void record_tally(const std::vector<double>& values,
                    const std::vector<std::uint64_t>& ns, double tally_sum) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (ns[i] != 0) count_value(values[i], ns[i]);
    }
    sum += tally_sum;
  }
  void merge(const ReferenceHistogram& other) {
    if (other.count == 0) return;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      counts[b] += other.counts[b];
    }
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
  }
  void reset() {
    std::fill(counts.begin(), counts.end(), 0);
    count = 0;
    sum = min = max = 0.0;
  }
  double quantile(double q) const {
    if (q == 0.0) return min;
    if (q == 1.0) return max;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(q * static_cast<double>(count))));
    std::uint64_t seen = 0;
    std::size_t bucket = counts.size() - 1;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      seen += counts[b];
      if (seen >= rank) {
        bucket = b;
        break;
      }
    }
    double representative;
    if (bucket == 0) {
      representative = min;
    } else if (bucket + 1 == counts.size()) {
      representative = max;
    } else {
      const double lo = geometry.bucket_lower(bucket);
      const double hi = geometry.bucket_upper(bucket);
      representative = lo + (hi - lo) / 2.0;
    }
    return std::clamp(representative, min, max);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> nonzero() const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] != 0) pairs.emplace_back(b, counts[b]);
    }
    return pairs;
  }
  friend bool operator==(const ReferenceHistogram& a,
                         const ReferenceHistogram& b) {
    if (a.count != b.count || a.sum != b.sum) return false;
    if (a.count == 0) return true;
    return a.min == b.min && a.max == b.max && a.counts == b.counts;
  }

  LogHistogram geometry;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Every observable of `hist` equals the reference's: each bucket count
/// (and the in-order nonzero pairs), count, extremes, sum bits and the
/// quantiles at the edges, the serving percentiles and rank 1.
void expect_matches(const LogHistogram& hist, const ReferenceHistogram& ref,
                    const std::string& where) {
  SCOPED_TRACE(where);
  for (std::size_t b = 0; b < ref.counts.size(); ++b) {
    ASSERT_EQ(hist.bucket_value(b), ref.counts[b]) << "bucket " << b;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> visited;
  hist.for_each_bucket([&](std::size_t b, std::uint64_t n) {
    visited.emplace_back(b, n);
  });
  EXPECT_EQ(visited, ref.nonzero());
  ASSERT_EQ(hist.count(), ref.count);
  EXPECT_EQ(hist.empty(), ref.count == 0);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(hist.sum()),
            std::bit_cast<std::uint64_t>(ref.sum));
  if (ref.count == 0) return;
  EXPECT_EQ(hist.min(), ref.min);
  EXPECT_EQ(hist.max(), ref.max);
  for (const double q : {0.0, 1e-6, 0.5, 0.99, 0.999, 1.0}) {
    EXPECT_EQ(hist.quantile(q), ref.quantile(q)) << "q " << q;
  }
}

/// A value for a random operation: mostly a narrow cluster (a few path
/// latencies), sometimes the whole range, its edges, zero, -0.0 and the
/// underflow / overflow tails.
double draw_value(Rng& rng, double centre) {
  switch (rng.below(8)) {
    case 0:
      return std::pow(10.0, rng.uniform(-12.0, 12.0));  // wide, tails too
    case 1: {
      const double edges[] = {0.0, -0.0, 1e-12, 1e-9, 1e9, 5e12};
      return edges[rng.below(6)];
    }
    default:
      return centre * (1.0 + 0.01 * static_cast<double>(rng.below(5)));
  }
}

void run_differential(const LogHistogram& geometry, std::uint64_t seed) {
  constexpr std::size_t kSlots = 4;
  std::vector<LogHistogram> hists(kSlots, geometry);
  std::vector<ReferenceHistogram> refs(kSlots, ReferenceHistogram(geometry));
  Rng rng(seed);
  for (int step = 0; step < 3000; ++step) {
    const std::size_t s = rng.below(kSlots);
    const double centre = std::pow(10.0, rng.uniform(-3.0, 3.0));
    const std::string where = "seed " + std::to_string(seed) + " step " +
                              std::to_string(step) + " slot " +
                              std::to_string(s);
    switch (rng.below(6)) {
      case 0: {
        const double value = draw_value(rng, centre);
        const std::uint64_t n = rng.below(4);  // 0 records nothing
        hists[s].record(value, n);
        refs[s].record(value, n);
        break;
      }
      case 1: {
        std::vector<double> values(1 + rng.below(6));
        std::vector<std::uint64_t> ns(values.size());
        double sum = 0.0;
        for (std::size_t i = 0; i < values.size(); ++i) {
          values[i] = draw_value(rng, centre);
          ns[i] = rng.below(50);
          for (std::uint64_t k = 0; k < ns[i]; ++k) sum += values[i];
        }
        hists[s].record_tally(values, ns, sum);
        refs[s].record_tally(values, ns, sum);
        break;
      }
      case 2: {  // any slot, itself and empty ones included
        const std::size_t from = rng.below(kSlots);
        hists[s].merge(hists[from]);
        refs[s].merge(refs[from]);
        break;
      }
      case 3:
        hists[s].reset();
        refs[s].reset();
        break;
      case 4: {  // checkpoint and restore through the exported state
        const ReferenceHistogram& ref = refs[s];
        hists[s] = LogHistogram::from_state(
            geometry.min_value(), geometry.max_value(),
            geometry.sub_bucket_bits(), ref.nonzero(), ref.min, ref.max,
            ref.sum);
        break;
      }
      default: {  // a wide burst, then (next ops) narrow reuse
        for (const double value : {1e-12, 1e-4, 1.0, 1e4, 5e12}) {
          hists[s].record(value);
          refs[s].record(value, 1);
        }
        break;
      }
    }
    expect_matches(hists[s], refs[s], where);
    if (testing::Test::HasFatalFailure()) return;
    for (std::size_t t = 0; t < kSlots; ++t) {
      EXPECT_EQ(hists[s] == hists[t], refs[s] == refs[t])
          << where << " vs slot " << t;
    }
  }
}

TEST(LogHistogramDifferential, MatchesAnEveryBucketReference) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    run_differential(LogHistogram(), seed);           // 1,916 buckets
    run_differential(LogHistogram(1e-3, 1e3, 2), seed);  // tails occupied
    if (HasFatalFailure()) return;
  }
}

TEST(LogHistogramDifferential, ResetAfterWideOccupancyEqualsFresh) {
  LogHistogram hist;
  for (const double value : {0.0, 1e-12, 1e-6, 1.0, 1e6, 5e12}) {
    hist.record(value, 3);
  }
  hist.reset();
  EXPECT_TRUE(hist == LogHistogram());
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) {
    ASSERT_EQ(hist.bucket_value(b), 0u) << "bucket " << b;
  }
  // Narrow reuse: only the new values' buckets are occupied, and the
  // result equals a fresh histogram fed the same records.
  LogHistogram fresh;
  for (LogHistogram* h : {&hist, &fresh}) {
    h->record(2.0, 5);
    h->record(2.5);
  }
  EXPECT_TRUE(hist == fresh);
  EXPECT_EQ(hist.quantile(0.5), fresh.quantile(0.5));
  EXPECT_EQ(hist.bucket_index(hist.quantile(1e-6)), hist.bucket_index(2.0));
  // And merged into a wide histogram, then reset, still equals fresh.
  LogHistogram wide;
  wide.record(1e-12);
  wide.record(5e12);
  wide.merge(hist);
  wide.reset();
  EXPECT_TRUE(wide == LogHistogram());
}

TEST(SortedQuantile, EmptyInputThrows) {
  EXPECT_THROW(sorted_quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(sorted_quantile({}, 0.0), std::invalid_argument);
}

TEST(SortedQuantile, SingleSampleReturnsItForEveryQ) {
  const std::vector<double> one{3.25};
  for (const double q : {0.0, 0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(sorted_quantile(one, q), 3.25) << "q = " << q;
  }
}

TEST(SortedQuantile, EndpointsAreExactSamples) {
  const std::vector<double> data{1.0, 2.5, 2.5, 7.0,
                                 std::numeric_limits<double>::infinity()};
  // q == 0 / q == 1 must return the extreme samples bit-for-bit — even
  // when interpolating against an infinite neighbour would produce NaN.
  EXPECT_EQ(sorted_quantile(data, 0.0), 1.0);
  EXPECT_TRUE(std::isinf(sorted_quantile(data, 1.0)));
  const std::vector<double> finite{1.0, 3.0};
  EXPECT_EQ(sorted_quantile(finite, 0.0), 1.0);
  EXPECT_EQ(sorted_quantile(finite, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(sorted_quantile(finite, 0.5), 2.0);
}

TEST(SortedQuantile, RejectsOutOfRangeQ) {
  const std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(sorted_quantile(data, -0.01), std::invalid_argument);
  EXPECT_THROW(sorted_quantile(data, 1.01), std::invalid_argument);
}

}  // namespace
}  // namespace staleflow
