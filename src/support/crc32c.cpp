#include "support/crc32c.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define NDPGEN_CRC32C_SSE42 1
#endif

namespace ndpgen::support::detail {

namespace {

using UpdateFn = std::uint32_t (*)(std::uint32_t,
                                   std::span<const std::uint8_t>) noexcept;

#ifdef NDPGEN_CRC32C_SSE42
/// Operator tables that advance a raw CRC register over a run of zero
/// bytes: shift(crc) = t[0][crc byte 0] ^ t[1][crc byte 1] ^ ... The
/// register update is linear, so a register fed X then Y equals the
/// register fed X, advanced over |Y| zeros, XOR a zero register fed Y.
using ShiftTables = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTables make_shift_tables(std::size_t zero_bytes) {
  std::array<std::uint32_t, 32> basis{};  // Image of each register bit.
  for (std::size_t bit = 0; bit < basis.size(); ++bit) {
    std::uint32_t crc = std::uint32_t{1} << bit;
    for (std::size_t i = 0; i < zero_bytes; ++i) {
      crc = (crc >> 8) ^ kCrc32cTables[0][crc & 0xFFu];
    }
    basis[bit] = crc;
  }
  ShiftTables tables{};
  for (std::size_t k = 0; k < tables.size(); ++k) {
    for (std::uint32_t byte = 0; byte < 256; ++byte) {
      std::uint32_t image = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((byte >> bit) & 1u) image ^= basis[8 * k + bit];
      }
      tables[k][byte] = image;
    }
  }
  return tables;
}

constexpr ShiftTables kShiftLong = make_shift_tables(kCrc32cLongStride);
constexpr ShiftTables kShiftShort = make_shift_tables(kCrc32cShortStride);

inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

/// Folds whole runs of 3 x kStride bytes into `state`. One crc32q chain
/// is latency-bound; three independent chains over the run's thirds keep
/// the unit busy, and the shift tables splice them back into one CRC.
template <std::size_t kStride>
__attribute__((target("sse4.2"))) void crc32c_three_streams(
    std::uint64_t& state, const std::uint8_t*& p, std::size_t& n,
    const ShiftTables& shift) noexcept {
  for (; n >= 3 * kStride; n -= 3 * kStride, p += 3 * kStride) {
    std::uint64_t second = 0;
    std::uint64_t third = 0;
    for (std::size_t i = 0; i < kStride; i += 8) {
      state = _mm_crc32_u64(state, load_u64(p + i));
      second = _mm_crc32_u64(second, load_u64(p + kStride + i));
      third = _mm_crc32_u64(third, load_u64(p + 2 * kStride + i));
    }
    for (const std::uint64_t next : {second, third}) {
      state = shift[0][state & 0xFFu] ^ shift[1][(state >> 8) & 0xFFu] ^
              shift[2][(state >> 16) & 0xFFu] ^
              shift[3][(state >> 24) & 0xFFu] ^ next;
    }
  }
}

/// The CRC32 instruction computes CRC32C with the same reflected bit
/// order and register convention as the table path. x86 is little-endian,
/// so an 8-byte load feeds the bytes in stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  std::uint64_t state = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  crc32c_three_streams<kCrc32cLongStride>(state, p, n, kShiftLong);
  crc32c_three_streams<kCrc32cShortStride>(state, p, n, kShiftShort);
  for (; n >= 8; n -= 8, p += 8) state = _mm_crc32_u64(state, load_u64(p));
  auto narrow = static_cast<std::uint32_t>(state);
  for (; n > 0; --n, ++p) narrow = _mm_crc32_u8(narrow, *p);
  return ~narrow;
}
#endif

UpdateFn select_update() noexcept {
#ifdef NDPGEN_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32c_update_sse42;
#endif
  return crc32c_update_table;
}

}  // namespace

std::uint32_t crc32c_update_runtime(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  static const UpdateFn update = select_update();
  return update(crc, data);
}

}  // namespace ndpgen::support::detail
