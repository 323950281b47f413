// Bloom filter over SST keys.
//
// GET must consult EVERY C1 table whose key range covers the key (no
// compaction happens during flush, §III-A), which makes point lookups
// probe many tables. A per-SST Bloom filter — standard LSM practice, kept
// in device DRAM next to the index metadata — lets the firmware skip
// tables that definitely do not contain the key.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "kv/key.hpp"
#include "support/divider.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

class BloomFilter {
 public:
  BloomFilter() = default;

  /// Sizes the filter for `expected_keys` at ~`bits_per_key` bits each
  /// (10 bits/key ~ 1% false positives). Uses k = 6 hash probes.
  explicit BloomFilter(std::uint64_t expected_keys,
                       std::uint32_t bits_per_key = 10) {
    NDPGEN_CHECK_ARG(bits_per_key >= 1, "need at least one bit per key");
    const std::uint64_t bits =
        std::max<std::uint64_t>(64, expected_keys * bits_per_key);
    words_.assign((bits + 63) / 64, 0);
    bits_ = support::Divider(bit_count());
  }

  [[nodiscard]] bool empty() const noexcept { return words_.empty(); }
  [[nodiscard]] std::uint64_t bit_count() const noexcept {
    return words_.size() * 64;
  }

  void insert(const Key& key) { insert(std::span<const Key>(&key, 1)); }

  /// Inserts every key of `keys`.
  void insert(std::span<const Key> keys) {
    NDPGEN_CHECK(!words_.empty(), "inserting into an unsized Bloom filter");
    // Locals: a store to a filter word cannot alias them, so the divider
    // stays in registers across the probes.
    const support::Divider bits = bits_;
    std::uint64_t* const words = words_.data();
    for (const Key& key : keys) {
      std::uint64_t h1 = 0, h2 = 0;
      hashes(key, h1, h2);
      for (std::uint32_t probe = 0; probe < kProbes; ++probe) {
        const std::uint64_t index = bits.remainder(h1 + probe * h2);
        words[index / 64] |= std::uint64_t{1} << (index % 64);
      }
    }
  }

  /// True if the key MIGHT be present (never a false negative). An empty
  /// (unsized) filter conservatively reports true.
  [[nodiscard]] bool may_contain(const Key& key) const noexcept {
    if (words_.empty()) return true;
    std::uint64_t h1 = 0, h2 = 0;
    hashes(key, h1, h2);
    for (std::uint32_t probe = 0; probe < kProbes; ++probe) {
      if (!bit(position(h1 + probe * h2))) return false;
    }
    return true;
  }

  /// Raw words for manifest serialization.
  [[nodiscard]] const std::vector<std::uint64_t>& words() const noexcept {
    return words_;
  }
  static BloomFilter from_words(std::vector<std::uint64_t> words) {
    BloomFilter filter;
    filter.words_ = std::move(words);
    if (!filter.words_.empty()) {
      filter.bits_ = support::Divider(filter.bit_count());
    }
    return filter;
  }

 private:
  static constexpr std::uint32_t kProbes = 6;

  static void hashes(const Key& key, std::uint64_t& h1,
                     std::uint64_t& h2) noexcept {
    // Double hashing from two splitmix-style mixes of the composite key.
    auto mix = [](std::uint64_t x) {
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    };
    h1 = mix(key.hi * 0x9e3779b97f4a7c15ULL ^ key.lo);
    h2 = mix(key.lo * 0xc2b2ae3d27d4eb4fULL ^ key.hi) | 1;  // Odd stride.
  }

  /// `hash % bit_count()` by a precomputed divider: exact for every
  /// 64-bit hash, so the filter's bits do not depend on the arithmetic.
  [[nodiscard]] std::uint64_t position(std::uint64_t hash) const noexcept {
    return bits_.remainder(hash);
  }

  [[nodiscard]] bool bit(std::uint64_t index) const noexcept {
    return (words_[index / 64] >> (index % 64)) & 1;
  }

  std::vector<std::uint64_t> words_;
  support::Divider bits_;  ///< By bit_count().
};

}  // namespace ndpgen::kv
