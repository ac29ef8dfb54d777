// Tests for sampling rules, migration rules, alpha-smoothness
// (Definition 2) and policy composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/fluid_simulator.h"
#include "core/migration.h"
#include "core/policy.h"
#include "core/sampling.h"
#include "net/generators.h"
#include "util/rng.h"

namespace staleflow {
namespace {

Instance three_links() {
  return uniform_parallel_links(3, 0.0, 1.0);
}

std::vector<double> get_distribution(const SamplingRule& rule,
                                     const Instance& inst,
                                     std::span<const double> flow,
                                     std::span<const double> latency) {
  const Commodity& commodity = inst.commodity(CommodityId{0});
  std::vector<double> out(commodity.paths.size());
  rule.distribution(inst, commodity, flow, latency, out);
  return out;
}

TEST(UniformSampling, EqualProbabilities) {
  const Instance inst = three_links();
  const std::vector<double> flow{0.7, 0.2, 0.1};
  const std::vector<double> latency{0.7, 0.2, 0.1};
  const UniformSampling rule;
  const auto sigma = get_distribution(rule, inst, flow, latency);
  for (const double s : sigma) EXPECT_DOUBLE_EQ(s, 1.0 / 3.0);
  EXPECT_FALSE(rule.depends_on_flow());
  EXPECT_EQ(rule.name(), "uniform");
}

TEST(ProportionalSampling, MatchesFlowShares) {
  const Instance inst = three_links();
  const std::vector<double> flow{0.7, 0.2, 0.1};
  const std::vector<double> latency{0.0, 0.0, 0.0};
  const ProportionalSampling rule;
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_DOUBLE_EQ(sigma[0], 0.7);
  EXPECT_DOUBLE_EQ(sigma[1], 0.2);
  EXPECT_DOUBLE_EQ(sigma[2], 0.1);
  EXPECT_TRUE(rule.depends_on_flow());
}

TEST(ProportionalSampling, UniformFloorMixesIn) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0, 0.0, 0.0};
  const std::vector<double> latency{0.0, 0.0, 0.0};
  const ProportionalSampling rule(0.3);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_DOUBLE_EQ(sigma[0], 0.7 + 0.1);
  EXPECT_DOUBLE_EQ(sigma[1], 0.1);
  EXPECT_DOUBLE_EQ(sigma[2], 0.1);
  EXPECT_THROW(ProportionalSampling(-0.1), std::invalid_argument);
  EXPECT_THROW(ProportionalSampling(1.1), std::invalid_argument);
}

TEST(ProportionalSampling, NormalisesByCommodityDemand) {
  const Instance inst = shared_bottleneck(0.5);
  const Commodity& c0 = inst.commodity(CommodityId{0});
  std::vector<double> flow(inst.path_count(), 0.0);
  // Put all of commodity 0's demand (0.5) on its first path.
  flow[c0.paths.front().index()] = 0.5;
  std::vector<double> latency(inst.path_count(), 0.0);
  const ProportionalSampling rule;
  std::vector<double> sigma(c0.paths.size());
  rule.distribution(inst, c0, flow, latency, sigma);
  EXPECT_DOUBLE_EQ(sigma[0], 1.0);  // 0.5 / 0.5
  EXPECT_DOUBLE_EQ(std::accumulate(sigma.begin(), sigma.end(), 0.0), 1.0);
}

TEST(LogitSampling, PrefersLowLatency) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{0.1, 0.5, 0.9};
  const LogitSampling rule(5.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_GT(sigma[0], sigma[1]);
  EXPECT_GT(sigma[1], sigma[2]);
  EXPECT_NEAR(std::accumulate(sigma.begin(), sigma.end(), 0.0), 1.0, 1e-12);
  // Ratios follow exp(-c * delta_l).
  EXPECT_NEAR(sigma[0] / sigma[1], std::exp(5.0 * 0.4), 1e-9);
}

TEST(LogitSampling, LargeCApproachesBestResponse) {
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{0.1, 0.5, 0.9};
  const LogitSampling rule(200.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_GT(sigma[0], 0.999);
  EXPECT_THROW(LogitSampling(0.0), std::invalid_argument);
}

TEST(LogitSampling, StableUnderLargeLatencies) {
  // The softmax must not overflow for big c * l values.
  const Instance inst = three_links();
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  const std::vector<double> latency{1000.0, 2000.0, 3000.0};
  const LogitSampling rule(10.0);
  const auto sigma = get_distribution(rule, inst, flow, latency);
  EXPECT_NEAR(sigma[0], 1.0, 1e-9);
  EXPECT_FALSE(std::isnan(sigma[2]));
}

TEST(BlendedSampling, MixesComponentDistributions) {
  const Instance inst = three_links();
  const std::vector<double> flow{0.7, 0.2, 0.1};
  const std::vector<double> latency{0.0, 0.0, 0.0};
  std::vector<BlendedSampling::Component> parts;
  parts.push_back({1.0, uniform_sampling()});
  parts.push_back({1.0, proportional_sampling()});
  const SamplingPtr blend = blended_sampling(std::move(parts));
  const auto sigma = get_distribution(*blend, inst, flow, latency);
  // Equal weights: sigma = (uniform + proportional) / 2.
  EXPECT_DOUBLE_EQ(sigma[0], 0.5 * (1.0 / 3.0) + 0.5 * 0.7);
  EXPECT_DOUBLE_EQ(sigma[1], 0.5 * (1.0 / 3.0) + 0.5 * 0.2);
  EXPECT_NEAR(std::accumulate(sigma.begin(), sigma.end(), 0.0), 1.0, 1e-12);
  EXPECT_TRUE(blend->depends_on_flow());
  EXPECT_NE(blend->name().find("blend"), std::string::npos);
}

TEST(BlendedSampling, NormalisesWeightsAndValidates) {
  std::vector<BlendedSampling::Component> parts;
  parts.push_back({3.0, uniform_sampling()});
  parts.push_back({1.0, logit_sampling(2.0)});
  const SamplingPtr blend = blended_sampling(std::move(parts));
  EXPECT_FALSE(blend->depends_on_flow());

  EXPECT_THROW(BlendedSampling({}), std::invalid_argument);
  std::vector<BlendedSampling::Component> null_rule;
  null_rule.push_back({1.0, nullptr});
  EXPECT_THROW(BlendedSampling(std::move(null_rule)), std::invalid_argument);
  std::vector<BlendedSampling::Component> negative;
  negative.push_back({-1.0, uniform_sampling()});
  EXPECT_THROW(BlendedSampling(std::move(negative)), std::invalid_argument);
  std::vector<BlendedSampling::Component> zero_sum;
  zero_sum.push_back({0.0, uniform_sampling()});
  EXPECT_THROW(BlendedSampling(std::move(zero_sum)), std::invalid_argument);
}

TEST(BlendedSampling, ConvergesAsAPolicy) {
  // The blend keeps positivity (from the uniform part), so the general
  // convergence machinery applies to it like any other member of the
  // paper's class. Heterogeneous links so the start is off-equilibrium.
  Rng rng(61);
  const Instance inst = random_parallel_links(3, rng);
  std::vector<BlendedSampling::Component> parts;
  parts.push_back({0.3, uniform_sampling()});
  parts.push_back({0.7, proportional_sampling()});
  Policy policy(blended_sampling(std::move(parts)),
                linear_migration(inst.max_latency()));
  const FluidSimulator sim(inst, policy);
  SimulationOptions options;
  options.update_period = inst.safe_update_period(*policy.smoothness());
  options.horizon = 200.0;
  options.stop_gap = 1e-8;
  const SimulationResult result = sim.run(FlowVector::uniform(inst), options);
  EXPECT_LT(result.final_gap, 1e-6);
}

TEST(SamplingRules, RejectWrongOutputSize) {
  const Instance inst = three_links();
  const Commodity& commodity = inst.commodity(CommodityId{0});
  const std::vector<double> flow{1.0 / 3, 1.0 / 3, 1.0 / 3};
  std::vector<double> wrong(2);
  EXPECT_THROW(
      UniformSampling{}.distribution(inst, commodity, flow, flow, wrong),
      std::invalid_argument);
}

// --------------------------------------------------------------- migration

TEST(BetterResponseMigration, StepFunction) {
  const BetterResponseMigration rule;
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(rule.probability(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 1.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
}

TEST(LinearMigration, ProportionalToGain) {
  const LinearMigration rule(2.0);  // l_max = 2
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(rule.probability(0.5, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(5.0, 0.0), 1.0);  // clamped
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 0.5);
  EXPECT_THROW(LinearMigration(0.0), std::invalid_argument);
}

TEST(AlphaCappedMigration, RespectsAlpha) {
  const AlphaCappedMigration rule(0.1);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(rule.probability(20.0, 0.0), 1.0);
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 0.1);
  EXPECT_THROW(AlphaCappedMigration(-1.0), std::invalid_argument);
}

TEST(RelativeSlackMigration, RelativeGain) {
  const RelativeSlackMigration rule(0.0);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rule.probability(2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(rule.probability(0.0, 0.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
  EXPECT_THROW(RelativeSlackMigration(-1.0), std::invalid_argument);
}

TEST(RelativeSlackMigration, ShiftMakesItSmooth) {
  const RelativeSlackMigration rule(0.5);
  ASSERT_TRUE(rule.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*rule.smoothness(), 2.0);
  EXPECT_TRUE(satisfies_alpha_smoothness(rule, 2.0, 10.0));
  // mu = (lP - lQ)/(lP + 0.5) <= 2 (lP - lQ); the bound is tight at lP->0.
  EXPECT_DOUBLE_EQ(rule.probability(1.5, 0.5), 0.5);
}

TEST(RelativeSlackMigration, DoesNotScaleWithLatencyMagnitude) {
  // The relative rule is invariant under scaling all latencies.
  const RelativeSlackMigration relative(0.0);
  EXPECT_DOUBLE_EQ(relative.probability(2.0, 1.0),
                   relative.probability(200.0, 100.0));
  // And it stays aggressive in the regime that cripples the linear rule:
  // typical latencies far below the worst case l_max. With l_max = 1000
  // and latencies around 1, linear migrates with ~1e-3 probability where
  // the relative rule migrates with ~1/2.
  const LinearMigration linear_rule(1000.0);
  EXPECT_DOUBLE_EQ(linear_rule.probability(1.0, 0.5), 0.0005);
  EXPECT_DOUBLE_EQ(relative.probability(1.0, 0.5), 0.5);
}

TEST(ConstantMigration, FixedProbability) {
  const ConstantMigration rule(0.4);
  EXPECT_DOUBLE_EQ(rule.probability(1.0, 0.99), 0.4);
  EXPECT_DOUBLE_EQ(rule.probability(0.99, 1.0), 0.0);
  EXPECT_FALSE(rule.smoothness().has_value());
  EXPECT_THROW(ConstantMigration(0.0), std::invalid_argument);
  EXPECT_THROW(ConstantMigration(1.5), std::invalid_argument);
}

TEST(AlphaSmoothness, NumericCheckAgreesWithTheory) {
  // Linear rule with scale L is (1/L)-smooth but not (1/(2L))-smooth.
  const LinearMigration linear(2.0);
  EXPECT_TRUE(satisfies_alpha_smoothness(linear, 0.5, 4.0));
  EXPECT_TRUE(satisfies_alpha_smoothness(linear, 0.6, 4.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(linear, 0.25, 4.0));

  const BetterResponseMigration better;
  EXPECT_FALSE(satisfies_alpha_smoothness(better, 1.0, 4.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(better, 1000.0, 4.0));

  const ConstantMigration constant_rule(0.5);
  EXPECT_FALSE(satisfies_alpha_smoothness(constant_rule, 100.0, 4.0));

  const AlphaCappedMigration capped(0.3);
  EXPECT_TRUE(satisfies_alpha_smoothness(capped, 0.3, 10.0));
  EXPECT_FALSE(satisfies_alpha_smoothness(capped, 0.2, 10.0));
}

TEST(MigrationRules, SelfishContract) {
  // All rules must never migrate towards equal-or-worse paths.
  std::vector<MigrationPtr> rules;
  rules.push_back(better_response_migration());
  rules.push_back(linear_migration(1.0));
  rules.push_back(alpha_capped_migration(2.0));
  rules.push_back(constant_migration(0.5));
  for (const auto& rule : rules) {
    for (double l = 0.0; l <= 2.0; l += 0.25) {
      EXPECT_DOUBLE_EQ(rule->probability(l, l), 0.0) << rule->name();
      EXPECT_DOUBLE_EQ(rule->probability(l, l + 0.5), 0.0) << rule->name();
      const double mu = rule->probability(l + 0.5, l);
      EXPECT_GE(mu, 0.0) << rule->name();
      EXPECT_LE(mu, 1.0) << rule->name();
    }
  }
}

TEST(MigrationRules, MonotoneInGain) {
  std::vector<MigrationPtr> rules;
  rules.push_back(linear_migration(2.0));
  rules.push_back(alpha_capped_migration(0.7));
  for (const auto& rule : rules) {
    double prev = 0.0;
    for (double gain = 0.0; gain <= 3.0; gain += 0.1) {
      const double mu = rule->probability(1.0 + gain, 1.0);
      EXPECT_GE(mu, prev - 1e-15) << rule->name();
      prev = mu;
    }
  }
}

// ------------------------------------------------------------------ policy

TEST(Policy, ComposesNames) {
  const Instance inst = three_links();
  const Policy policy = make_replicator_policy(inst);
  EXPECT_NE(policy.name().find("proportional"), std::string::npos);
  EXPECT_NE(policy.name().find("linear"), std::string::npos);
}

TEST(Policy, ReplicatorSmoothnessIsInverseLmax) {
  const Instance inst = three_links();  // l_max = 1 (a=0, b=1, x<=1)
  const Policy policy = make_replicator_policy(inst);
  ASSERT_TRUE(policy.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*policy.smoothness(), 1.0 / inst.max_latency());
}

TEST(Policy, FactoriesProduceExpectedRules) {
  const Instance inst = three_links();
  EXPECT_FALSE(make_naive_better_response_policy().smoothness().has_value());
  EXPECT_TRUE(make_uniform_linear_policy(inst).smoothness().has_value());
  const Policy alpha_policy = make_alpha_policy(0.25);
  ASSERT_TRUE(alpha_policy.smoothness().has_value());
  EXPECT_DOUBLE_EQ(*alpha_policy.smoothness(), 0.25);
  EXPECT_NE(make_logit_policy(inst, 3.0).name().find("logit"),
            std::string::npos);
}

TEST(Policy, RejectsNullRules) {
  EXPECT_THROW(Policy(nullptr, linear_migration(1.0)),
               std::invalid_argument);
  EXPECT_THROW(Policy(uniform_sampling(), nullptr), std::invalid_argument);
}

class SamplingPositivity
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(SamplingPositivity, DistributionsSumToOneAndStayPositive) {
  // Section 2.2 requires sigma_Q > 0 for convergence; with a floor the
  // proportional rule keeps that property even on concentrated flows.
  const auto [links, floor_value] = GetParam();
  const Instance inst =
      uniform_parallel_links(static_cast<std::size_t>(links), 0.0, 1.0);
  std::vector<double> flow(inst.path_count(), 0.0);
  flow[0] = 1.0;  // fully concentrated
  const std::vector<double> latency(inst.path_count(), 0.5);

  std::vector<std::unique_ptr<const SamplingRule>> rules;
  rules.push_back(uniform_sampling());
  rules.push_back(proportional_sampling(floor_value));
  rules.push_back(logit_sampling(2.0));
  for (const auto& rule : rules) {
    const auto sigma = get_distribution(*rule, inst, flow, latency);
    const double total = std::accumulate(sigma.begin(), sigma.end(), 0.0);
    EXPECT_NEAR(total, 1.0, 1e-12) << rule->name();
    if (rule->name() != "proportional" || floor_value > 0.0) {
      for (const double s : sigma) EXPECT_GT(s, 0.0) << rule->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SamplingPositivity,
    ::testing::Combine(::testing::Values(2, 3, 8),
                       ::testing::Values(0.01, 0.1, 0.5)));

// --------------------------------------------------------- sample_from_cdf

/// The reference sample_from_cdf must match: std::lower_bound's index,
/// clamped to the last bucket.
std::size_t lower_bound_index(const std::vector<double>& cdf, double u) {
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

std::uint64_t inverse_mod_2_64(std::uint64_t odd) {
  std::uint64_t x = odd;  // Newton: 3 correct bits, doubling per step
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

/// A generator whose next uniform() is exactly `u` (a multiple of 2^-53
/// in [0, 1)): xoshiro256**'s output rotl(s1 * 5, 7) * 9 depends on state
/// word 1 alone and is invertible.
Rng rng_yielding(double u) {
  const auto k = static_cast<std::uint64_t>(std::ldexp(u, 53));
  EXPECT_EQ(std::ldexp(static_cast<double>(k), -53), u);
  const std::uint64_t output = k << 11;
  const std::uint64_t s1 =
      std::rotr(output * inverse_mod_2_64(9), 7) * inverse_mod_2_64(5);
  Rng rng = Rng::from_state({1, s1, 0, 0});
  Rng probe = rng;
  EXPECT_EQ(probe.uniform(), u);
  return rng;
}

/// sample_from_cdf(cdf) with the next variate forced to `u`, checked
/// against the reference — and against consuming exactly one raw draw.
void expect_sample_matches(const std::vector<double>& cdf, double u) {
  Rng rng = rng_yielding(u);
  Rng one_draw = rng;
  one_draw();
  EXPECT_EQ(sample_from_cdf(cdf, rng), lower_bound_index(cdf, u))
      << "u = " << u << ", cdf size " << cdf.size();
  EXPECT_EQ(rng.state(), one_draw.state());
}

TEST(SampleFromCdf, MatchesLowerBoundOnTiesAndZeroWidthBuckets) {
  const double ulp = std::ldexp(1.0, -53);
  const double below_one = 1.0 - ulp;
  // Ties: a run of equal entries must resolve to its first index.
  const std::vector<double> ties = {0.25, 0.5, 0.5, 0.5, 0.75, 1.0};
  // Zero-width buckets at the start, middle and end.
  const std::vector<double> zero_width = {0.0,   0.0,   0.375, 0.375,
                                          0.375, 0.875, 1.0,   1.0};
  for (const auto& cdf : {ties, zero_width}) {
    for (const double u : {0.0, ulp, 0.25 - ulp, 0.25, 0.25 + ulp, 0.375,
                           0.5 - ulp, 0.5, 0.5 + ulp, 0.75, 0.875 - ulp,
                           0.875, below_one}) {
      expect_sample_matches(cdf, u);
    }
  }
}

TEST(SampleFromCdf, SizeOneAndTheEndClamp) {
  const double below_one = 1.0 - std::ldexp(1.0, -53);
  for (const double u : {0.0, 0.5, below_one}) {
    expect_sample_matches({1.0}, u);
    expect_sample_matches({0.25}, u);  // u past the only entry: clamped
  }
  // u just below 1, with the last entry clamped to 1 or (round-off)
  // short of u: both land on the last bucket.
  expect_sample_matches({0.2, 0.999999, 1.0}, below_one);
  expect_sample_matches({0.1, 0.2}, below_one);
  expect_sample_matches({0.1, 0.2, 0.2}, below_one);
  expect_sample_matches({0.5, below_one, below_one, 1.0}, below_one);
}

TEST(SampleFromCdf, MatchesLowerBoundOnRandomCdfs) {
  Rng gen(31);
  for (int trial = 0; trial < 2000; ++trial) {
    // Sizes 1..40, with entries snapped to a coarse grid so ties and
    // zero-width buckets are frequent.
    std::vector<double> cdf(1 + gen.below(40));
    double acc = 0.0;
    for (double& v : cdf) {
      acc += gen.below(3) == 0 ? 0.0 : static_cast<double>(gen.below(4));
      v = acc;
    }
    for (double& v : cdf) v = acc > 0.0 ? v / acc : 1.0;
    if (gen.below(2) == 0) cdf.back() = std::max(cdf.back(), 1.0);

    Rng draw(gen());
    Rng reference = draw;
    const double u = reference.uniform();
    ASSERT_EQ(sample_from_cdf(cdf, draw), lower_bound_index(cdf, u))
        << "trial " << trial;
    // A variate on (or, where the entry is no multiple of 2^-53, just
    // below) an entry of the CDF.
    const double entry = cdf[gen.below(cdf.size())];
    if (entry < 1.0) {
      expect_sample_matches(
          cdf, std::ldexp(std::floor(std::ldexp(entry, 53)), -53));
    }
  }
}

}  // namespace
}  // namespace staleflow
