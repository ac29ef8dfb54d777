// A rerouting policy = sampling rule + migration rule (Section 2.2), with
// factories for the combinations the paper analyses.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/migration.h"
#include "core/sampling.h"
#include "net/instance.h"
#include "util/rng.h"

namespace staleflow {

/// Two-step rerouting policy. Immutable after construction; shared between
/// simulators via const reference.
class Policy {
 public:
  Policy(SamplingPtr sampling, MigrationPtr migration);

  const SamplingRule& sampling() const noexcept { return *sampling_; }
  const MigrationRule& migration() const noexcept { return *migration_; }

  /// e.g. "proportional + linear(l_max=2)".
  std::string name() const;

  /// alpha of the migration rule, or nullopt for non-smooth rules.
  std::optional<double> smoothness() const {
    return migration_->smoothness();
  }

 private:
  SamplingPtr sampling_;
  MigrationPtr migration_;
};

/// Replicator dynamics: proportional sampling + linear migration with
/// scale l_max taken from the instance (Theorem 7's policy).
Policy make_replicator_policy(const Instance& instance,
                              double uniform_floor = 0.0);

/// Uniform sampling + linear migration (Theorem 6's policy).
Policy make_uniform_linear_policy(const Instance& instance);

/// Uniform sampling + min(1, alpha * gain) migration: directly exposes the
/// smoothness parameter for Corollary 5 sweeps.
Policy make_alpha_policy(double alpha);

/// Smoothed best response: logit sampling with parameter c + linear
/// migration.
Policy make_logit_policy(const Instance& instance, double c);

/// Naive baseline: uniform sampling + better-response migration. Not
/// alpha-smooth; oscillates under staleness.
Policy make_naive_better_response_policy();

/// Extension ([10], the paper's conclusion): proportional sampling +
/// relative-slack migration. Its aggressiveness does not degrade with the
/// maximum slope beta; with shift > 0 it is (1/shift)-smooth and covered
/// by Corollary 5.
Policy make_relative_slack_policy(double shift = 0.0);

/// The Corollary 5 recipe inverted: given the bulletin-board period T the
/// deployment must live with, returns the most aggressive uniform-sampling
/// policy that is still provably convergent, i.e. alpha-capped migration
/// with alpha = 1/(4 * D * beta * T). Throws std::invalid_argument if
/// T <= 0 or the instance has zero slope/path length (any policy is safe
/// then — no finite alpha is implied).
Policy make_safe_policy(const Instance& instance, double update_period);

/// Cumulative sampling distribution of `policy` over `commodity`'s local
/// path list, evaluated against bulletin-board values. Resizes `out` to the
/// commodity's path count; the final bucket is clamped to >= 1 so that
/// round-off can never push a uniform draw past the end. Candidates are
/// then drawn with one binary search per activation — the hot-path form
/// shared by the finite-population simulator and the route service.
void sampling_cdf(const Policy& policy, const Instance& instance,
                  const Commodity& commodity,
                  std::span<const double> board_path_flow,
                  std::span<const double> board_path_latency,
                  std::vector<double>& out);

/// Draws a local path index from a distribution built by sampling_cdf():
/// one uniform variate u, then std::lower_bound(cdf, u)'s index clamped to
/// cdf.size() - 1 (the end clamp against round-off). Requires a non-empty
/// cdf. The search runs over the first size - 1 entries — its result is
/// then already the clamped index — and is branch-free: each halving step
/// picks its half with a conditional move, so the unpredictable
/// comparison never costs a mispredicted jump on the per-query path.
inline std::size_t sample_from_cdf(std::span<const double> cdf, Rng& rng) {
  const double u = rng.uniform();
  const double* base = cdf.data();
  std::size_t n = cdf.size() - 1;
  if (n == 0) return 0;
  // Invariant: the answer lies in [base, base + n].
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] < u ? base + half : base;
    n -= half;
  }
  return static_cast<std::size_t>(base - cdf.data()) + (*base < u ? 1 : 0);
}

}  // namespace staleflow
