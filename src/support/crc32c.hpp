// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used as the end-to-end integrity check on SST data blocks: ECC protects
// each flash page against raw bit errors, but an ECC miscorrection (or a
// fault anywhere between the NAND bus and DRAM staging) can hand back a
// clean-looking page with wrong bytes. The block-level CRC32C catches
// exactly that class, the same layering real storage engines use.
//
// Two implementations compute the same values:
//   * the table path: slicing-by-8 over eight 256-entry tables computed at
//     compile time, folding eight input bytes per step; the tail (< 8
//     bytes) goes byte-at-a-time through table 0. Bytes are composed
//     explicitly (no unaligned loads), so it is constexpr and independent
//     of host endianness. It serves constant evaluation, every host
//     without a CRC32C instruction, and the tests as the reference;
//   * the hardware path (crc32c.cpp): on x86-64 hosts with SSE4.2 the
//     CRC32 instruction folds eight bytes per step. From 3 x 256 bytes on
//     it runs three independent chains over the thirds of each 3 x 8 KiB,
//     then 3 x 256-byte run and splices them with precomputed shift-by-
//     zeros tables, since one chain waits on the instruction's latency.
//     It is selected once at run time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace ndpgen::support {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic byte-at-a-time table; tables[k][i] is the CRC
/// of byte i followed by k zero bytes.
constexpr Crc32cTables make_crc32c_tables() {
  Crc32cTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
    }
    tables[0][i] = crc;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

inline constexpr Crc32cTables kCrc32cTables = make_crc32c_tables();

/// The table path of crc32c_update.
[[nodiscard]] constexpr std::uint32_t crc32c_update_table(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  const auto& t = kCrc32cTables;
  crc = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo =
        crc ^ (std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
               std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; --n, ++p) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  }
  return ~crc;
}

/// Stream lengths of the hardware path's three-chain runs; inputs shorter
/// than 3 * kCrc32cShortStride run one chain.
inline constexpr std::size_t kCrc32cLongStride = 8192;
inline constexpr std::size_t kCrc32cShortStride = 256;

/// The run-time path: the hardware CRC32 instruction where the host has
/// it, else the table path.
[[nodiscard]] std::uint32_t crc32c_update_runtime(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept;

}  // namespace detail

/// Incremental update: feeds `data` into a running CRC (start from 0).
[[nodiscard]] constexpr std::uint32_t crc32c_update(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  if (std::is_constant_evaluated()) {
    return detail::crc32c_update_table(crc, data);
  }
  return detail::crc32c_update_runtime(crc, data);
}

/// One-shot CRC32C of a byte span.
[[nodiscard]] constexpr std::uint32_t crc32c(
    std::span<const std::uint8_t> data) noexcept {
  return crc32c_update(0, data);
}

}  // namespace ndpgen::support
