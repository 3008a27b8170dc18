// Deterministic, fast pseudo-random number generation for workloads and
// property tests. xoshiro256** (public-domain algorithm by Blackman & Vigna)
// seeded through splitmix64 so any 64-bit seed gives a well-mixed state.
#pragma once

#include <cstdint>
#include <limits>

#include "common/assert.hpp"

namespace nvc {

/// splitmix64 step; used for seeding and as a cheap standalone mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless one-shot mixer: exactly one splitmix64 step of `x`, without
/// advancing a stream. The single hash function behind SHARDS spatial
/// sampling, the admission doorkeeper, torn-length draws, and workload
/// address scrambling — all of which need the same bit-identical output as
/// advancing a fresh splitmix64 stream once (simd.hpp's splitmix64x4 is the
/// vector counterpart, lane-for-lane identical).
constexpr std::uint64_t splitmix64_mix(std::uint64_t x) noexcept {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** engine. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) noexcept {
    NVC_ASSERT(bound > 0);
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    NVC_ASSERT(lo <= hi);
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace nvc
