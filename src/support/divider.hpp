// Quotient and remainder by a fixed 64-bit divisor, without a divide
// instruction.
//
// For a divisor d >= 1, precompute m = floor((2^64 - 1) / d). Then
// m * d > 2^64 - 1 - d, so for every 64-bit x
//
//   x/d - 1 < x/d - x/2^64 < x * m / 2^64 <= x/d,
//
// and q = floor(x * m / 2^64), one high multiply, is floor(x / d) or one
// less. Since q * d <= x, r = x - q * d does not wrap: it is the true
// remainder or that plus d, and one compare-and-subtract corrects both.
// The answers equal `/` and `%` for every x and d.
#pragma once

#include <cstdint>

#include "support/error.hpp"

namespace ndpgen::support {

class Divider {
 public:
  struct QuotRem {
    std::uint64_t quotient;
    std::uint64_t remainder;
  };

  Divider() noexcept = default;  ///< Divides by 1.
  explicit Divider(std::uint64_t divisor) {
    NDPGEN_CHECK_ARG(divisor >= 1, "division by zero");
    divisor_ = divisor;
    inverse_ = ~std::uint64_t{0} / divisor;
  }

  [[nodiscard]] std::uint64_t divisor() const noexcept { return divisor_; }

  [[nodiscard]] QuotRem divide(std::uint64_t x) const noexcept {
    std::uint64_t q = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * inverse_) >> 64);
    std::uint64_t r = x - q * divisor_;
    if (r >= divisor_) {
      ++q;
      r -= divisor_;
    }
    return {q, r};
  }
  [[nodiscard]] std::uint64_t quotient(std::uint64_t x) const noexcept {
    return divide(x).quotient;
  }
  [[nodiscard]] std::uint64_t remainder(std::uint64_t x) const noexcept {
    return divide(x).remainder;
  }

 private:
  std::uint64_t divisor_ = 1;
  std::uint64_t inverse_ = ~std::uint64_t{0};  ///< floor((2^64 - 1) / d).
};

}  // namespace ndpgen::support
