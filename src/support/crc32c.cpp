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
/// The CRC32 instruction computes CRC32C with the same reflected bit
/// order and register convention as the table path. x86 is little-endian,
/// so an 8-byte load feeds the bytes in stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_sse42(
    std::uint32_t crc, std::span<const std::uint8_t> data) noexcept {
  std::uint64_t state = ~crc;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
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
