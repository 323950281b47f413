#include "support/bytes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <type_traits>
#include <vector>

namespace ndpgen::support {
namespace {

TEST(Bytes, U16RoundTrip) {
  std::vector<std::uint8_t> buffer;
  put_u16(buffer, 0xbeef);
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer[0], 0xef);  // Little-endian.
  EXPECT_EQ(get_u16(buffer, 0), 0xbeef);
}

TEST(Bytes, U32RoundTrip) {
  std::vector<std::uint8_t> buffer;
  put_u32(buffer, 0x12345678);
  EXPECT_EQ(get_u32(buffer, 0), 0x12345678u);
}

TEST(Bytes, U64RoundTrip) {
  std::vector<std::uint8_t> buffer;
  put_u64(buffer, 0x0123456789abcdefULL);
  EXPECT_EQ(get_u64(buffer, 0), 0x0123456789abcdefULL);
}

TEST(Bytes, OffsetReads) {
  std::vector<std::uint8_t> buffer;
  put_u32(buffer, 1);
  put_u32(buffer, 2);
  EXPECT_EQ(get_u32(buffer, 4), 2u);
}

TEST(Bytes, OutOfBoundsThrows) {
  std::vector<std::uint8_t> buffer = {1, 2};
  EXPECT_THROW(get_u32(buffer, 0), Error);
  EXPECT_THROW(get_u16(buffer, 1), Error);
}

// Every width of the word-sized helpers reads and writes exactly the byte
// loop's bytes, at unaligned addresses, and touches nothing past its width.
TEST(Bytes, LittleEndianLoadsAndStoresMatchTheByteLoop) {
  constexpr std::uint64_t kValue = 0x8877665544332211ULL;
  std::uint8_t buffer[24];
  const auto check = [&]<std::size_t N>(std::integral_constant<std::size_t, N>) {
    for (std::size_t at = 0; at < 8; ++at) {
      std::fill(std::begin(buffer), std::end(buffer), 0xA5);
      store_le<N>(buffer + at, kValue);
      for (std::size_t i = 0; i < sizeof(buffer); ++i) {
        const bool inside = i >= at && i < at + N;
        const std::uint8_t expected =
            inside ? static_cast<std::uint8_t>(kValue >> (8 * (i - at)))
                   : std::uint8_t{0xA5};
        ASSERT_EQ(buffer[i], expected) << N << " bytes at " << at;
      }
      const std::uint64_t mask =
          N == 8 ? ~std::uint64_t{0} : (std::uint64_t{1} << (8 * N)) - 1;
      EXPECT_EQ(load_le<N>(buffer + at), kValue & mask);
      EXPECT_EQ(load_le(buffer + at, N), kValue & mask);
    }
  };
  check(std::integral_constant<std::size_t, 1>{});
  check(std::integral_constant<std::size_t, 2>{});
  check(std::integral_constant<std::size_t, 3>{});
  check(std::integral_constant<std::size_t, 4>{});
  check(std::integral_constant<std::size_t, 5>{});
  check(std::integral_constant<std::size_t, 6>{});
  check(std::integral_constant<std::size_t, 7>{});
  check(std::integral_constant<std::size_t, 8>{});
  EXPECT_EQ(load_le(buffer, 0), 0u);

  std::vector<std::uint8_t> expected;
  const std::uint64_t words[] = {kValue, 1, ~std::uint64_t{0}};
  for (const std::uint64_t word : words) put_u64(expected, word);
  std::vector<std::uint8_t> bulk(expected.size());
  store_u64s(bulk.data(), words);
  EXPECT_EQ(bulk, expected);
  std::uint8_t narrow[8] = {};
  store_u16(narrow, 0xbeef);
  store_u32(narrow + 2, 0x12345678);
  EXPECT_EQ(get_u16(narrow, 0), 0xbeef);
  EXPECT_EQ(get_u32(narrow, 2), 0x12345678u);
  EXPECT_EQ(narrow[0], 0xef);
  EXPECT_EQ(narrow[2], 0x78);
}

TEST(Varint, SmallValues) {
  std::vector<std::uint8_t> buffer;
  put_varint(buffer, 0);
  put_varint(buffer, 127);
  ASSERT_EQ(buffer.size(), 2u);
  std::size_t offset = 0;
  EXPECT_EQ(get_varint(buffer, offset), 0u);
  EXPECT_EQ(get_varint(buffer, offset), 127u);
  EXPECT_EQ(offset, 2u);
}

TEST(Varint, MultiByteValues) {
  std::vector<std::uint8_t> buffer;
  put_varint(buffer, 128);
  put_varint(buffer, 300);
  put_varint(buffer, ~0ULL);
  std::size_t offset = 0;
  EXPECT_EQ(get_varint(buffer, offset), 128u);
  EXPECT_EQ(get_varint(buffer, offset), 300u);
  EXPECT_EQ(get_varint(buffer, offset), ~0ULL);
  EXPECT_EQ(offset, buffer.size());
}

TEST(Varint, TruncatedThrows) {
  std::vector<std::uint8_t> buffer = {0x80};
  std::size_t offset = 0;
  EXPECT_THROW(get_varint(buffer, offset), Error);
}

}  // namespace
}  // namespace ndpgen::support
