#include "core/policy.h"

#include <algorithm>
#include <stdexcept>

namespace staleflow {

Policy::Policy(SamplingPtr sampling, MigrationPtr migration)
    : sampling_(std::move(sampling)), migration_(std::move(migration)) {
  if (sampling_ == nullptr || migration_ == nullptr) {
    throw std::invalid_argument("Policy: rules must be non-null");
  }
}

std::string Policy::name() const {
  return sampling_->name() + " + " + migration_->name();
}

Policy make_replicator_policy(const Instance& instance,
                              double uniform_floor) {
  return Policy(proportional_sampling(uniform_floor),
                linear_migration(instance.max_latency()));
}

Policy make_uniform_linear_policy(const Instance& instance) {
  return Policy(uniform_sampling(),
                linear_migration(instance.max_latency()));
}

Policy make_alpha_policy(double alpha) {
  return Policy(uniform_sampling(), alpha_capped_migration(alpha));
}

Policy make_logit_policy(const Instance& instance, double c) {
  return Policy(logit_sampling(c), linear_migration(instance.max_latency()));
}

Policy make_naive_better_response_policy() {
  return Policy(uniform_sampling(), better_response_migration());
}

Policy make_relative_slack_policy(double shift) {
  return Policy(proportional_sampling(), relative_slack_migration(shift));
}

Policy make_safe_policy(const Instance& instance, double update_period) {
  if (!(update_period > 0.0)) {
    throw std::invalid_argument(
        "make_safe_policy: update_period must be > 0");
  }
  const double d = static_cast<double>(instance.max_path_length());
  const double beta = instance.max_slope();
  if (d == 0.0 || beta == 0.0) {
    throw std::invalid_argument(
        "make_safe_policy: instance has no slope bound; every policy is "
        "safe, pick one explicitly");
  }
  const double alpha = 1.0 / (4.0 * d * beta * update_period);
  return Policy(uniform_sampling(), alpha_capped_migration(alpha));
}

void sampling_cdf(const Policy& policy, const Instance& instance,
                  const Commodity& commodity,
                  std::span<const double> board_path_flow,
                  std::span<const double> board_path_latency,
                  std::vector<double>& out) {
  out.resize(commodity.paths.size());
  policy.sampling().distribution(instance, commodity, board_path_flow,
                                 board_path_latency, out);
  double acc = 0.0;
  for (double& v : out) {
    acc += v;
    v = acc;
  }
  // Defend against round-off in the final bucket.
  if (!out.empty()) out.back() = std::max(out.back(), 1.0);
}

}  // namespace staleflow
