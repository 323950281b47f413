#include "support/divider.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace ndpgen::support {
namespace {

constexpr std::uint64_t kMax = ~std::uint64_t{0};

/// Asserts divide(x) equals `/` and `%` for x and its neighbours.
void expect_exact(const Divider& divider, std::uint64_t x) {
  const std::uint64_t d = divider.divisor();
  for (const std::uint64_t v : {x - 1, x, x + 1}) {
    const Divider::QuotRem got = divider.divide(v);
    ASSERT_EQ(got.quotient, v / d) << v << " / " << d;
    ASSERT_EQ(got.remainder, v % d) << v << " % " << d;
    ASSERT_EQ(divider.quotient(v), v / d);
    ASSERT_EQ(divider.remainder(v), v % d);
  }
}

TEST(Divider, MatchesDivisionAndRemainder) {
  std::vector<std::uint64_t> divisors = {1,
                                         2,
                                         3,
                                         (std::uint64_t{1} << 32) - 1,
                                         (std::uint64_t{1} << 32) + 1,
                                         std::uint64_t{1} << 63,
                                         kMax};
  for (std::uint64_t k = 1; k <= 64; ++k) divisors.push_back(64 * k);
  // The Bloom filter's bit counts (64 * words) and the generator's
  // divisors at every scale the tests and the benchmark use.
  for (const std::uint64_t words : {1u, 2'047u, 20'470u, 204'700u}) {
    divisors.push_back(64 * words);
  }
  for (const std::uint64_t d : {10u, 11u, 21u, 409u, 16'383u, 235'947u}) {
    divisors.push_back(d);
  }
  Xoshiro256 rng(35);
  for (int i = 0; i < 64; ++i) {
    divisors.push_back(rng() | 1);
    divisors.push_back(rng() >> (rng() % 64) | 1);
  }
  for (const std::uint64_t d : divisors) {
    SCOPED_TRACE(d);
    const Divider divider(d);
    ASSERT_EQ(divider.divisor(), d);
    // x = 0 and 2^64 - 1 (their neighbours wrap to 2^64 - 1 and 0).
    expect_exact(divider, 0);
    expect_exact(divider, kMax);
    // Multiples of d, and the largest one below 2^64.
    for (std::uint64_t q : {std::uint64_t{1}, std::uint64_t{2},
                            std::uint64_t{1'000}, kMax / d, kMax / d - 1,
                            kMax / d / 2}) {
      expect_exact(divider, q * d);
    }
    for (int i = 0; i < 2'000; ++i) {
      expect_exact(divider, rng());
      expect_exact(divider, rng() >> (rng() % 64));
    }
  }
}

TEST(Divider, DefaultDividesByOne) {
  const Divider divider;
  EXPECT_EQ(divider.divisor(), 1u);
  expect_exact(divider, 0);
  expect_exact(divider, kMax);
  expect_exact(divider, 12345);
}

TEST(Divider, RejectsZero) { EXPECT_THROW((void)Divider(0), Error); }

}  // namespace
}  // namespace ndpgen::support
