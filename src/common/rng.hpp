// Deterministic random number generation.
//
// Every stochastic element of the reproduction (workload key choice, network
// jitter, data payloads) draws from explicitly seeded generators so that
// experiments are reproducible run-to-run. We implement splitmix64 (for
// seeding) and xoshiro256** (as the workhorse generator) rather than relying
// on std::mt19937 so the stream is stable across standard library
// implementations.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace agar {

/// splitmix64: tiny, high-quality 64-bit mixer. Used to expand a single
/// user-provided seed into the 256-bit state xoshiro256** requires.
class SplitMix64 {
 public:
  /// The state's increment and the output mix's two multipliers: the n-th
  /// word (from 1) of a stream seeded with s mixes s + n * kGamma, so any
  /// word can be computed on its own.
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
  static constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;

  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * kMul1;
    z = (z ^ (z >> 27)) * kMul2;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, statistically strong PRNG with a 2^256-1 period.
/// Satisfies the UniformRandomBitGenerator concept so it can also be used
/// with <random> distributions if needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x1234abcd5678ef01ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next_u64(); }

  std::uint64_t next_u64() {
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

  /// Uniform integer in [0, bound). Uses Lemire's multiply-shift reduction;
  /// bias is negligible for the bounds used here (< 2^32).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Fill a buffer with pseudo-random bytes (test payloads).
  void fill_bytes(void* data, std::size_t len);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace agar
