// Deterministic pseudo-random number generation.
//
// All workload generators are seeded so every experiment is exactly
// reproducible. xoshiro256** is used for speed; SplitMix64 seeds it.
#pragma once

#include <cstdint>

namespace ndpgen::support {

/// SplitMix64 — used to expand a single seed into xoshiro state.
class SplitMix64 {
 public:
  /// State increment and the two finalizer multipliers (for code that
  /// computes many SplitMix64 outputs lane-wise).
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  static constexpr std::uint64_t kMul1 = 0xbf58476d1ce4e5b9ULL;
  static constexpr std::uint64_t kMul2 = 0x94d049bb133111ebULL;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += kGamma);
    z = (z ^ (z >> 30)) * kMul1;
    z = (z ^ (z >> 27)) * kMul2;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, deterministic generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x5eed5eed5eedULL) noexcept {
    SplitMix64 mixer(seed);
    for (auto& word : state_) word = mixer.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  constexpr result_type operator()() noexcept {
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

  /// Uniform integer in [0, bound). bound must be > 0.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    // Lemire's multiply-shift rejection-free approximation is fine here;
    // bias is < 2^-64 * bound which is irrelevant for workload synthesis.
    const unsigned __int128 product =
        static_cast<unsigned __int128>((*this)()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::uint64_t range(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  constexpr double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

}  // namespace ndpgen::support
