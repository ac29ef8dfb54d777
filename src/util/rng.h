// Deterministic pseudo-random number generation for simulations.
//
// All randomness in staleflow flows through Rng so that every simulation,
// test, and benchmark is reproducible from a single 64-bit seed. The
// generator is xoshiro256** (Blackman & Vigna), which is fast, has a
// 256-bit state, and passes BigCrush.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace staleflow {

/// Deterministic random number generator (xoshiro256**).
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// plugged into <random> distributions, but also offers the convenience
/// draws the simulators need directly.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  /// Next raw 64-bit output.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1): the 53 high bits of one raw output.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (rejection).
  std::uint64_t below(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli draw with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Exponential variate with the given rate (> 0).
  double exponential(double rate);

  /// Standard normal variate (Box-Muller, no caching for determinism).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Samples an index in [0, weights.size()) proportionally to weights.
  /// Requires at least one strictly positive weight; negatives are an error.
  std::size_t weighted_index(std::span<const double> weights);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Derives an independent child generator (for per-agent streams).
  Rng split() noexcept;

  /// The full 256-bit generator state — the cursor a checkpoint stores so
  /// a restored stream continues exactly where this one stands (every
  /// future draw and split() identical). Round-trips through from_state().
  std::array<std::uint64_t, 4> state() const noexcept { return state_; }

  /// Rebuilds a generator at a previously exported cursor. Throws
  /// std::invalid_argument on the all-zero state (unreachable from any
  /// seeded generator: xoshiro256** never enters it, and the constructor
  /// avoids it), so a zeroed/corrupt checkpoint fails loudly instead of
  /// producing a degenerate stream.
  static Rng from_state(const std::array<std::uint64_t, 4>& state);

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Rng::below(n) for one fixed n, with its per-n work done once — the
/// serve loop draws thousands of clients from one slice per sub-batch. A
/// draw returns the same value and consumes the same raw outputs as
/// rng.below(n): it rejects raw draws under the same threshold and takes
/// the same remainder, computed without a division by Lemire's fastmod
/// (Lemire, Kaser & Kurz 2019): with M = ceil(2^128 / n),
/// r % n == ((M * r mod 2^128) * n) >> 128, exactly, for every 64-bit r
/// and n.
class UniformBelow {
 public:
  /// Requires n > 0 (throws std::invalid_argument, as Rng::below does).
  explicit UniformBelow(std::uint64_t n);

  std::uint64_t operator()(Rng& rng) const noexcept {
    for (;;) {
      const std::uint64_t r = rng();
      if (r >= threshold_) return remainder(r);
    }
  }

  /// r % n, division-free.
  std::uint64_t remainder(std::uint64_t r) const noexcept {
    using u128 = unsigned __int128;
    const u128 fraction = magic_ * r;  // mod 2^128
    // (fraction * n) >> 128 from two 64x64 products; the sum cannot
    // overflow 128 bits.
    const u128 low = static_cast<std::uint64_t>(fraction) * u128{n_};
    const u128 high = static_cast<std::uint64_t>(fraction >> 64) * u128{n_};
    return static_cast<std::uint64_t>((high + (low >> 64)) >> 64);
  }

 private:
  std::uint64_t n_ = 1;
  std::uint64_t threshold_ = 0;  // (2^64 - n) mod n, as in Rng::below
  unsigned __int128 magic_ = 0;  // ceil(2^128 / n) mod 2^128
};

}  // namespace staleflow
