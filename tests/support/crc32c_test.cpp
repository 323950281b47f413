#include "support/crc32c.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "support/crc32c_reference.hpp"
#include "support/rng.hpp"

namespace ndpgen::support {
namespace {

using reference::crc32c_bitwise;

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
      ASSERT_EQ(crc32c(slice), crc32c_bitwise(0, slice))
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

TEST(Crc32c, DispatchedEqualsTable) {
  // crc32c/crc32c_update take the hardware path where the host has one;
  // both must equal the table path and the bitwise reference everywhere.
  SplitMix64 rng(2021);
  std::vector<std::uint8_t> buffer(32 * 1024 + 8);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  const std::span<const std::uint8_t> all(buffer);
  for (const std::size_t offset : {0, 1, 3, 5, 7}) {
    for (std::size_t length = 0; length <= 264; ++length) {
      const auto slice = all.subspan(offset, length);
      const std::uint32_t table = detail::crc32c_update_table(0, slice);
      ASSERT_EQ(crc32c(slice), table)
          << "offset " << offset << " length " << length;
      ASSERT_EQ(table, crc32c_bitwise(0, slice))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(crc32c_update(0xDEADBEEFu, slice),
                detail::crc32c_update_table(0xDEADBEEFu, slice))
          << "offset " << offset << " length " << length;
    }
  }

  // Whole 32 KiB data blocks: random, all-zero and all-ones bytes.
  const std::vector<std::uint8_t> zeros(32 * 1024, 0x00);
  const std::vector<std::uint8_t> ones(32 * 1024, 0xFF);
  for (const std::span<const std::uint8_t> block :
       {all.first(32 * 1024), all.subspan(3, 32 * 1024),
        std::span<const std::uint8_t>(zeros),
        std::span<const std::uint8_t>(ones)}) {
    const std::uint32_t expected = crc32c_bitwise(0, block);
    EXPECT_EQ(detail::crc32c_update_table(0, block), expected);
    EXPECT_EQ(crc32c(block), expected);
  }

  // Around each length where the hardware path changes how many chains it
  // runs: the short and long three-chain runs and their repeats.
  for (const std::size_t cutover :
       {3 * detail::kCrc32cShortStride, 6 * detail::kCrc32cShortStride,
        3 * detail::kCrc32cLongStride,
        3 * detail::kCrc32cLongStride + 3 * detail::kCrc32cShortStride}) {
    for (std::size_t length = cutover - 17; length <= cutover + 17; ++length) {
      for (const std::size_t offset : {0, 5}) {
        const auto slice = all.subspan(offset, length);
        ASSERT_EQ(crc32c_update(0x1234567u, slice),
                  detail::crc32c_update_table(0x1234567u, slice))
            << "offset " << offset << " length " << length;
      }
    }
  }

  // A 32 KiB block at every alignment of the 8-byte loads.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const auto block = all.subspan(offset, 32 * 1024);
    EXPECT_EQ(crc32c(block), crc32c_bitwise(0, block)) << "offset " << offset;
  }

  // Chained updates over uneven pieces, as the WAL chains its entries.
  std::uint32_t chained = 0;
  std::uint32_t table = 0;
  std::size_t at = 0;
  while (at < buffer.size()) {
    const std::size_t piece =
        std::min<std::size_t>(rng.next() % 300, buffer.size() - at);
    const auto slice = all.subspan(at, piece);
    chained = crc32c_update(chained, slice);
    table = detail::crc32c_update_table(table, slice);
    ASSERT_EQ(chained, table) << "after byte " << at + piece;
    at += piece;
  }
  EXPECT_EQ(chained, crc32c_bitwise(0, all));
}

}  // namespace
}  // namespace ndpgen::support
