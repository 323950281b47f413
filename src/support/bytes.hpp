// Little-endian byte encoding helpers and varints.
//
// The SST on-storage format is explicitly little-endian so the simulated
// hardware (which sees the same bytes) and the software parsers agree
// bit-for-bit, independent of host endianness.
#pragma once

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

/// Writes `v` little-endian into out[0..3].
inline void store_u32(std::uint8_t* out, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Writes `v` little-endian into out[0..7].
inline void store_u64(std::uint8_t* out, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

[[nodiscard]] inline std::uint16_t get_u16(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 2 <= in.size(), "get_u16 out of bounds");
  return static_cast<std::uint16_t>(in[offset]) |
         static_cast<std::uint16_t>(in[offset + 1]) << 8;
}

[[nodiscard]] inline std::uint32_t get_u32(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 4 <= in.size(), "get_u32 out of bounds");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[offset + i]) << (8 * i);
  return v;
}

[[nodiscard]] inline std::uint64_t get_u64(std::span<const std::uint8_t> in,
                                           std::size_t offset) {
  NDPGEN_CHECK_ARG(offset + 8 <= in.size(), "get_u64 out of bounds");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[offset + i]) << (8 * i);
  return v;
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
