// Little-endian byte encoding helpers and varints.
//
// The SST on-storage format is explicitly little-endian so the simulated
// hardware (which sees the same bytes) and the software parsers agree
// bit-for-bit, independent of host endianness.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace ndpgen::support {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// The little-endian unsigned integer of `Bytes` bytes (1..8) at `at`,
/// zero-extended: one word load on a little-endian host.
template <std::size_t Bytes>
[[nodiscard]] inline std::uint64_t load_le(const std::uint8_t* at) noexcept {
  static_assert(Bytes >= 1 && Bytes <= 8);
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, at, Bytes);
  } else {
    for (std::size_t i = 0; i < Bytes; ++i) {
      v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    }
  }
  return v;
}

/// The little-endian unsigned integer of `bytes` bytes (0..8, known only
/// at run time) at `at`, zero-extended.
[[nodiscard]] inline std::uint64_t load_le(const std::uint8_t* at,
                                           std::size_t bytes) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes; ++i) {
    v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
  }
  return v;
}

/// Writes the low `Bytes` bytes of `v` little-endian into out[0..Bytes).
template <std::size_t Bytes>
inline void store_le(std::uint8_t* out, std::uint64_t v) noexcept {
  static_assert(Bytes >= 1 && Bytes <= 8);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, Bytes);
  } else {
    for (std::size_t i = 0; i < Bytes; ++i) {
      out[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
}

inline void store_u16(std::uint8_t* out, std::uint16_t v) noexcept {
  store_le<2>(out, v);
}
inline void store_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  store_le<4>(out, v);
}
inline void store_u64(std::uint8_t* out, std::uint64_t v) noexcept {
  store_le<8>(out, v);
}

/// Writes `words` little-endian into out[0..8 * words.size()).
inline void store_u64s(std::uint8_t* out,
                       std::span<const std::uint64_t> words) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    if (!words.empty()) std::memcpy(out, words.data(), words.size_bytes());
  } else {
    for (const std::uint64_t word : words) {
      store_u64(out, word);
      out += 8;
    }
  }
}

[[nodiscard]] inline std::uint16_t get_u16(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 2 <= in.size(), "get_u16 out of bounds");
  return static_cast<std::uint16_t>(load_le<2>(in.data() + offset));
}

[[nodiscard]] inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 4 <= in.size(), "get_u32 out of bounds");
  return static_cast<std::uint32_t>(load_le<4>(in.data() + offset));
}

[[nodiscard]] inline std::uint64_t get_u64(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 8 <= in.size(), "get_u64 out of bounds");
  return load_le<8>(in.data() + offset);
}

/// Appends a LEB128-style varint (used in index blocks, never in data
/// blocks — the hardware only parses fixed layouts).
inline void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

/// Decodes a varint; advances `offset` past it.
[[nodiscard]] inline std::uint64_t get_varint(std::span<const std::uint8_t> in,
                                              std::size_t& offset) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    NDPGEN_CHECK_ARG(offset < in.size(), "truncated varint");
    const std::uint8_t byte = in[offset++];
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    NDPGEN_CHECK_ARG(shift < 64, "varint too long");
  }
  return v;
}

}  // namespace ndpgen::support
