// Bit-at-a-time CRC32C straight from the polynomial definition: the
// reference both implementations in support/crc32c.hpp are tested against,
// and the checksum tests use when a bug in either must not hide.
#pragma once

#include <cstdint>
#include <span>

namespace ndpgen::support::reference {

/// Same register convention as crc32c_update: start from 0, chainable.
inline std::uint32_t crc32c_bitwise(std::uint32_t crc,
                                    std::span<const std::uint8_t> data) {
  crc = ~crc;
  for (const std::uint8_t byte : data) {
    crc ^= byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
  }
  return ~crc;
}

}  // namespace ndpgen::support::reference
