// Tests for the util module: deterministic RNG, statistics, table/CSV,
// the four-lane FNV-1a kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/fnv.h"
#include "util/rng.h"
#include "util/statistics.h"
#include "util/table.h"

namespace staleflow {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.5);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BelowIsInRangeAndRoughlyUniform) {
  Rng rng(3);
  std::array<int, 10> buckets{};
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    ++buckets[v];
  }
  for (const int count : buckets) {
    EXPECT_NEAR(count, 10'000, 500);
  }
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, RangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10'000; ++i) {
    const std::int64_t v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(9);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits, 30'000, 1'000);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 100'000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40'000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Rng, WeightedIndexRejectsBadInput) {
  Rng rng(29);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(zero), std::invalid_argument);
  const std::vector<double> negative{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(negative), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> items{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = items;
  rng.shuffle(items);
  std::sort(items.begin(), items.end());
  EXPECT_EQ(items, sorted);
}

TEST(Rng, SplitStreamsAreIndependentlySeeded) {
  Rng parent(37);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// The recovery WAL's RNG-cursor contract: exporting the state mid-stream
// and restoring it elsewhere continues the stream exactly — every raw
// draw identical, from any cut point, no matter how far the original had
// advanced.
TEST(Rng, StateRoundTripContinuesStreamExactly) {
  for (const std::uint64_t seed : {0ULL, 1ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng original(seed);
    for (int warmup = 0; warmup < 257; ++warmup) original();

    Rng restored = Rng::from_state(original.state());
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(original(), restored()) << "seed " << seed << " draw " << i;
    }
  }
}

// split() is part of the cursor contract too: the epoch engines derive
// every per-epoch and per-sub-batch stream via split(), so a restored
// master must split into the SAME children, and the children's children
// must match as well.
TEST(Rng, StateRoundTripPreservesSplitStreams) {
  Rng original(99);
  for (int warmup = 0; warmup < 17; ++warmup) original.split();

  Rng restored = Rng::from_state(original.state());
  for (int s = 0; s < 32; ++s) {
    Rng child_a = original.split();
    Rng child_b = restored.split();
    Rng grandchild_a = child_a.split();
    Rng grandchild_b = child_b.split();
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(child_a(), child_b()) << "split " << s << " draw " << i;
      ASSERT_EQ(grandchild_a(), grandchild_b());
    }
  }
}

TEST(Rng, FromStateRejectsAllZeroState) {
  EXPECT_THROW(Rng::from_state({0, 0, 0, 0}), std::invalid_argument);
}

// UniformBelow is Rng::below with the per-n work hoisted: for every n it
// must return the same values AND consume the same raw draws (identical
// state() afterwards), rejection loop included — the serve loop's client
// draws depend on it bit for bit.
TEST(UniformBelow, MatchesRngBelowValueForValueAndDrawForDraw) {
  std::vector<std::uint64_t> sizes = {1,
                                      2,
                                      3,
                                      7,
                                      std::uint64_t{1} << 31,
                                      (std::uint64_t{1} << 32) - 1,
                                      std::uint64_t{1} << 32,
                                      // Large n reject often: the
                                      // threshold is near 2^63.
                                      (std::uint64_t{1} << 63) + 1,
                                      ~std::uint64_t{0}};
  Rng pick(2024);
  for (int i = 0; i < 40; ++i) sizes.push_back(pick.below(1'000'000) + 1);
  for (int i = 0; i < 40; ++i) sizes.push_back((pick() >> 32) + 1);
  for (int i = 0; i < 10; ++i) sizes.push_back(pick() | 1);

  for (const std::uint64_t n : sizes) {
    const UniformBelow draw(n);
    Rng a(n ^ 0x5EED), b(n ^ 0x5EED);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(draw(a), b.below(n)) << "n " << n << " draw " << i;
    }
    EXPECT_EQ(a.state(), b.state()) << "n " << n;
  }
  EXPECT_THROW(UniformBelow(0), std::invalid_argument);
}

// The division-free remainder is exact for every 64-bit r, edges included.
TEST(UniformBelow, RemainderIsExact) {
  Rng rng(8);
  for (const std::uint64_t n :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{10}, (std::uint64_t{1} << 32) - 1,
        std::uint64_t{1} << 32, (std::uint64_t{1} << 63) + 7,
        ~std::uint64_t{0}}) {
    const UniformBelow draw(n);
    for (const std::uint64_t r :
         {std::uint64_t{0}, n - 1, n, n + 1, ~std::uint64_t{0},
          ~std::uint64_t{0} - n}) {
      EXPECT_EQ(draw.remainder(r), r % n) << "n " << n << " r " << r;
    }
    for (int i = 0; i < 10'000; ++i) {
      const std::uint64_t r = rng();
      ASSERT_EQ(draw.remainder(r), r % n) << "n " << n << " r " << r;
    }
  }
}

TEST(RunningStats, BasicMoments) {
  RunningStats stats;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, ThrowsWhenEmpty) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_THROW(stats.mean(), std::logic_error);
  EXPECT_THROW(stats.min(), std::logic_error);
  EXPECT_THROW(stats.max(), std::logic_error);
  stats.add(1.0);
  EXPECT_THROW(stats.variance(), std::logic_error);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(41);
  RunningStats all, left, right;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal();
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Summary, QuantilesOfKnownData) {
  std::vector<double> data;
  for (int i = 1; i <= 101; ++i) data.push_back(static_cast<double>(i));
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 101u);
  EXPECT_DOUBLE_EQ(s.median, 51.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 101.0);
  EXPECT_NEAR(s.p05, 6.0, 1e-9);
  EXPECT_NEAR(s.p95, 96.0, 1e-9);
}

TEST(Summary, EmptyInputIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(Quantile, RejectsBadArguments) {
  const std::vector<double> data{1.0, 2.0};
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(quantile(data, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(data, 1.1), std::invalid_argument);
}

TEST(FitLine, RecoversExactLine) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 + 2.0 * i);
  }
  const LinearFit fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(FitLine, RejectsDegenerateInput) {
  const std::vector<double> xs{1.0, 1.0}, ys{1.0, 2.0};
  EXPECT_THROW(fit_line(xs, ys), std::invalid_argument);
  const std::vector<double> one{1.0};
  EXPECT_THROW(fit_line(one, one), std::invalid_argument);
}

TEST(FitPower, RecoversExponent) {
  std::vector<double> xs, ys;
  for (int i = 1; i <= 16; ++i) {
    xs.push_back(i);
    ys.push_back(5.0 * std::pow(i, 1.7));
  }
  const PowerFit fit = fit_power(xs, ys);
  EXPECT_NEAR(fit.coefficient, 5.0, 1e-9);
  EXPECT_NEAR(fit.exponent, 1.7, 1e-9);
}

TEST(FitPower, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0}, ys{1.0, 2.0};
  EXPECT_THROW(fit_power(xs, ys), std::invalid_argument);
}

TEST(Table, AlignsColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1"});
  table.add_row({"longer", "2.5"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("------"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_EQ(table.columns(), 2u);
}

TEST(Table, RejectsBadShapes) {
  EXPECT_THROW(Table({}), std::invalid_argument);
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
}

TEST(TableFormatters, Format) {
  EXPECT_EQ(fmt(1.23456789, 3), "1.235");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_bool(true), "yes");
  EXPECT_EQ(fmt_bool(false), "no");
  EXPECT_NE(fmt_sci(12345.678).find('e'), std::string::npos);
}

TEST(CsvWriter, WritesQuotedCells) {
  const std::string path = testing::TempDir() + "/staleflow_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.add_row({"plain", "with,comma"});
    csv.add_row({"with\"quote", "x"});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string contents = buffer.str();
  EXPECT_NE(contents.find("a,b"), std::string::npos);
  EXPECT_NE(contents.find("\"with,comma\""), std::string::npos);
  EXPECT_NE(contents.find("\"with\"\"quote\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvWriter, RejectsWrongColumnCount) {
  const std::string path = testing::TempDir() + "/staleflow_csv_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), std::invalid_argument);
  csv.close();
  std::remove(path.c_str());
}

TEST(FnvLanes, MatchesHashBytesForEveryMixOfLengths) {
  // Span lengths straddling the lane refill points: empty, shorter and
  // longer than a 4-byte word, and long enough that the other lanes cycle
  // through many spans while one runs.
  const std::vector<std::size_t> lengths = {0, 1, 3, 4, 5, 7, 64, 100000};
  Rng rng(29);
  std::string bytes(lengths.back() * 9, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.below(256));

  for (std::size_t count = 0; count <= 9; ++count) {
    for (std::size_t mix = 0; mix < 40; ++mix) {
      std::vector<std::string_view> spans;
      std::size_t at = 0;
      for (std::size_t i = 0; i < count; ++i) {
        // The first mixes rotate through the lengths in order; the rest
        // draw them at random, so equal and unequal neighbours both occur.
        const std::size_t length =
            mix < lengths.size() ? lengths[(mix + i) % lengths.size()]
                                 : lengths[rng.below(lengths.size())];
        spans.push_back(std::string_view(bytes).substr(at, length));
        at += length;
      }
      // Lanes continue from any starting state, as hash_bytes does.
      std::vector<std::uint64_t> lanes(count);
      std::vector<std::uint64_t> serial(count);
      for (std::size_t i = 0; i < count; ++i) {
        lanes[i] = serial[i] = fnv::kOffsetBasis + i * mix;
        fnv::hash_bytes(serial[i], spans[i].data(), spans[i].size());
      }
      fnv::hash_lanes(spans, lanes);
      EXPECT_EQ(lanes, serial) << count << " spans, mix " << mix;
    }
  }
}

}  // namespace
}  // namespace staleflow
