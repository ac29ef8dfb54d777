#include "util/rng.h"

#include <cmath>
#include <limits>
#include <numbers>

namespace staleflow {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
  // Avoid the (astronomically unlikely) all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 1;
  }
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below: n must be positive");
  // Lemire-style rejection to remove modulo bias.
  const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = (*this)();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::range: lo > hi");
  const auto width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(below(width));
}

double Rng::exponential(double rate) {
  if (!(rate > 0.0)) {
    throw std::invalid_argument("Rng::exponential: rate must be > 0");
  }
  double u = uniform();
  // uniform() can return exactly 0; log(0) would be -inf.
  while (u == 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::normal(double mean, double stddev) {
  double u1 = uniform();
  while (u1 == 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(2.0 * std::numbers::pi * u2);
}

std::size_t Rng::weighted_index(std::span<const double> weights) {
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0) {
      throw std::invalid_argument("Rng::weighted_index: negative weight");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument(
        "Rng::weighted_index: weights must have positive sum");
  }
  const double target = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) return i;
  }
  // Floating-point slack: return the last positive-weight index.
  for (std::size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0.0) return i - 1;
  }
  return weights.size() - 1;
}

UniformBelow::UniformBelow(std::uint64_t n) : n_(n) {
  if (n == 0) {
    throw std::invalid_argument("UniformBelow: n must be positive");
  }
  threshold_ = (~n + 1) % n;
  using u128 = unsigned __int128;
  // ceil(2^128 / n) == floor((2^128 - 1) / n) + 1; n == 1 wraps to 0,
  // which still yields remainder 0.
  magic_ = ~u128{0} / n + 1;
}

Rng Rng::split() noexcept {
  return Rng{(*this)()};
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& state) {
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0) {
    throw std::invalid_argument(
        "Rng::from_state: all-zero state is not a valid xoshiro256** "
        "cursor");
  }
  Rng rng;
  rng.state_ = state;
  return rng;
}

}  // namespace staleflow
