// FNV-1a hashing helpers shared by the deterministic digests (service
// telemetry, sweep cells) and the record checksums of the WAL and trace
// files. Doubles hash by bit pattern, never by decimal rendering, so a
// digest pins the exact instruction-level outcome of a run; strings hash
// length-prefixed so field boundaries cannot alias.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>

namespace staleflow::fnv {

inline constexpr std::uint64_t kOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kPrime = 0x100000001B3ULL;

inline void hash_bytes(std::uint64_t& h, const void* data,
                       std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= kPrime;
  }
}

/// FNV-1a of many spans at once: afterwards `hashes[i]` holds what
/// `hash_bytes(hashes[i], spans[i])` would have left there, for every i.
/// One chain per span is a serial xor-multiply dependency, so the kernel
/// runs four spans as four independent chains in one loop, which the
/// core overlaps. A lane whose span ends picks up the next unstarted
/// span, so spans of unequal length keep all four lanes busy; the spans
/// still running when none are left to start finish on hash_bytes, as do
/// all spans when there are fewer than four. Requires
/// `hashes.size() == spans.size()`.
inline void hash_lanes(std::span<const std::string_view> spans,
                       std::span<std::uint64_t> hashes) noexcept {
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kIdle = static_cast<std::size_t>(-1);
  const std::size_t count = spans.size();
  std::size_t next = 0;
  std::size_t span_of[kLanes] = {};
  const unsigned char* at[kLanes] = {};
  std::size_t left[kLanes] = {};
  std::uint64_t h[kLanes] = {};
  const auto start = [&](std::size_t lane) {
    span_of[lane] = next;
    at[lane] = reinterpret_cast<const unsigned char*>(spans[next].data());
    left[lane] = spans[next].size();
    h[lane] = hashes[next];
    ++next;
  };
  if (count >= kLanes) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) start(lane);
    bool full = true;
    while (full) {
      std::size_t run = left[0];
      for (std::size_t lane = 1; lane < kLanes; ++lane) {
        if (left[lane] < run) run = left[lane];
      }
      const unsigned char* p0 = at[0];
      const unsigned char* p1 = at[1];
      const unsigned char* p2 = at[2];
      const unsigned char* p3 = at[3];
      std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
      for (std::size_t i = 0; i < run; ++i) {
        h0 = (h0 ^ p0[i]) * kPrime;
        h1 = (h1 ^ p1[i]) * kPrime;
        h2 = (h2 ^ p2[i]) * kPrime;
        h3 = (h3 ^ p3[i]) * kPrime;
      }
      h[0] = h0, h[1] = h1, h[2] = h2, h[3] = h3;
      for (std::size_t lane = 0; lane < kLanes; ++lane) {
        at[lane] += run;
        left[lane] -= run;
        if (left[lane] != 0) continue;
        hashes[span_of[lane]] = h[lane];
        if (next < count) {
          start(lane);
        } else {
          span_of[lane] = kIdle;
          full = false;
        }
      }
    }
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      if (span_of[lane] == kIdle) continue;
      hash_bytes(h[lane], at[lane], left[lane]);
      hashes[span_of[lane]] = h[lane];
    }
  }
  for (; next < count; ++next) {
    hash_bytes(hashes[next], spans[next].data(), spans[next].size());
  }
}

inline void hash_u64(std::uint64_t& h, std::uint64_t value) noexcept {
  hash_bytes(h, &value, sizeof(value));
}

inline void hash_double(std::uint64_t& h, double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  hash_u64(h, bits);
}

inline void hash_string(std::uint64_t& h, const std::string& value) noexcept {
  hash_u64(h, value.size());
  hash_bytes(h, value.data(), value.size());
}

}  // namespace staleflow::fnv
