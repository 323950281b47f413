// SST reading: block assembly from flash pages and in-block key search.
//
// Content access is immediate (bytes are bytes); *timing* of flash reads
// is charged by the NDP executors through the platform DES, keeping the
// correctness path and the performance model cleanly separated.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "kv/sst_builder.hpp"
#include "platform/flash.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

class SSTReader {
 public:
  SSTReader(const SSTable& table, platform::FlashModel& flash,
            KeyExtractor extractor);

  /// Assembles data block `index` (32 KiB) from its flash pages.
  [[nodiscard]] std::vector<std::uint8_t> read_block(std::uint32_t index) const;

  /// Checked assembly: materializes any pending silent-corruption mark the
  /// reliability model left on the block's pages (a deterministic bit
  /// flip), then verifies the index CRC32C. A mismatch comes back as
  /// Status{kStorage} — a typed result, never an exception — so DES-driven
  /// callers can route the block into the degraded-read path.
  [[nodiscard]] Result<std::vector<std::uint8_t>> read_block_checked(
      std::uint32_t index) const;

  /// Recovery companion of read_block_checked: re-assembles the block
  /// from the (persistent, correct) flash content after the firmware's
  /// soft-decision pass. Content equals read_block; the caller charges
  /// flash_recovery_latency for the pass.
  [[nodiscard]] std::vector<std::uint8_t> reread_block_recovered(
      std::uint32_t index) const;

  /// Looks up `key`: index probe + in-block binary search.
  /// Returns the record bytes, or nullopt. Tombstones are NOT applied
  /// here (the store layer reconciles recency and deletion).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const Key& key) const;

  /// In-block binary search over an already assembled, key-sorted data
  /// block: the record whose key equals `key`, or nullopt.
  [[nodiscard]] static std::optional<std::span<const std::uint8_t>>
  find_in_block(std::span<const std::uint8_t> block, const Key& key,
                KeyExtractor extractor);

  /// Iterates all records of the table in key order.
  void for_each_record(
      const std::function<void(std::span<const std::uint8_t>)>& fn) const;

  [[nodiscard]] const SSTable& table() const noexcept { return table_; }

 private:
  const SSTable& table_;
  platform::FlashModel& flash_;
  KeyExtractor extractor_;
};

}  // namespace ndpgen::kv
