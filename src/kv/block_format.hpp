// SST data-block format.
//
// NDP-processable data blocks are 32 KiB and carry fixed-size records
// packed back-to-back from offset 0 — exactly the byte stream the Tuple
// Input Buffer of a PE regroups into tuples. Metadata lives in an 8-byte
// trailer at the END of the block so the tuple region stays contiguous:
//
//   [record 0][record 1]...[record n-1][..slack..][count u16][size u16][magic u32]
//
// The same encode/decode is used by the software NDP path, the SST
// builder/reader and the test suite, so hardware and software agree on
// every byte.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kv/key.hpp"

namespace ndpgen::kv {

inline constexpr std::uint32_t kDataBlockBytes = 32 * 1024;
inline constexpr std::uint32_t kBlockTrailerBytes = 8;
inline constexpr std::uint32_t kBlockMagic = 0x6e4b5631;  // "nKV1"

/// Maximum number of `record_bytes`-sized records per block.
[[nodiscard]] constexpr std::uint32_t records_per_block(
    std::uint32_t record_bytes) noexcept {
  return record_bytes == 0
             ? 0
             : (kDataBlockBytes - kBlockTrailerBytes) / record_bytes;
}

/// Decoded view of a data block's trailer.
struct BlockTrailer {
  std::uint16_t record_count = 0;
  std::uint16_t record_bytes = 0;
};

/// Builds one data block in place, in one reused kDataBlockBytes image.
class DataBlockBuilder {
 public:
  explicit DataBlockBuilder(std::uint32_t record_bytes);

  /// True if another record still fits.
  [[nodiscard]] bool has_space() const noexcept { return count_ < capacity_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::uint32_t record_count() const noexcept { return count_; }

  /// The next record's slot in the image (record_bytes long; requires
  /// has_space()). Write the record there, then commit() it; a slot left
  /// uncommitted is handed out again.
  [[nodiscard]] std::span<std::uint8_t> slot() noexcept {
    return {image_.data() + std::size_t{count_} * record_bytes_,
            record_bytes_};
  }
  void commit() noexcept { ++count_; }

  /// Appends one record (must be exactly record_bytes long).
  void add(std::span<const std::uint8_t> record);

  /// Zeroes the slack, writes the trailer and returns the finished image,
  /// valid until the next slot() or add(); the builder is empty again.
  [[nodiscard]] std::span<const std::uint8_t> seal();

  /// seal(), copied out.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  std::uint32_t record_bytes_;
  std::uint32_t capacity_;  ///< records_per_block(record_bytes_).
  std::uint32_t count_ = 0;
  std::vector<std::uint8_t> image_;
};

/// Parses and validates a block trailer. Throws Error{kStorage} if the
/// magic or geometry is inconsistent.
[[nodiscard]] BlockTrailer read_trailer(std::span<const std::uint8_t> block);

/// Returns record `index` of a decoded block.
[[nodiscard]] std::span<const std::uint8_t> block_record(
    std::span<const std::uint8_t> block, const BlockTrailer& trailer,
    std::uint32_t index);

/// Payload bytes (count * record size) of a block.
[[nodiscard]] inline std::uint32_t block_payload_bytes(
    const BlockTrailer& trailer) noexcept {
  return std::uint32_t{trailer.record_count} * trailer.record_bytes;
}

}  // namespace ndpgen::kv
