#include "support/crc32c.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "support/rng.hpp"

namespace ndpgen::support {
namespace {

/// Bit-at-a-time reference straight from the polynomial definition.
std::uint32_t crc32c_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t crc = ~0u;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Crc32c, KnownAnswer) {
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, KnownAnswerAtCompileTime) {
  constexpr std::uint8_t kDigits[] = {'1', '2', '3', '4', '5',
                                      '6', '7', '8', '9'};
  static_assert(crc32c(kDigits) == 0xE3069283u);
}

TEST(Crc32c, MatchesBitwiseReferenceOverLengthsAndOffsets) {
  SplitMix64 rng(42);
  std::vector<std::uint8_t> buffer(300);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  // Odd offsets exercise every alignment of the 8-byte main loop; lengths
  // 0..N cover every tail length.
  for (const std::size_t offset : {0, 1, 3, 5, 7}) {
    for (std::size_t length = 0; offset + length <= 264; ++length) {
      const auto slice = std::span<const std::uint8_t>(buffer).subspan(
          offset, length);
      ASSERT_EQ(crc32c(slice), crc32c_bitwise(slice))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32c, IncrementalUpdateEqualsOneShot) {
  SplitMix64 rng(7);
  std::vector<std::uint8_t> buffer(1000);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buffer);
  for (const std::size_t split : {0, 1, 7, 8, 13, 500, 999, 1000}) {
    const std::uint32_t head = crc32c(all.first(split));
    EXPECT_EQ(crc32c_update(head, all.subspan(split)), crc32c(all))
        << "split " << split;
  }
}

}  // namespace
}  // namespace ndpgen::support
