// Sorted String Table structures and builder.
//
// Each SST comprises an index block and a number of 32 KiB data blocks
// holding key-sorted fixed-size records (paper §III-A). Data blocks are
// placed on physical flash pages through the PlacementPolicy; the index
// (per-block first/last key, record counts, page lists) and the tombstone
// list are kept in device DRAM metadata, mirroring nKV's unified
// format/layout layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kv/block_format.hpp"
#include "kv/bloom.hpp"
#include "kv/key.hpp"
#include "kv/placement.hpp"
#include "platform/flash.hpp"

namespace ndpgen::kv {

/// Extracts the ordering key from a packed record. A plain function: the
/// store calls it once per record on every load, scan and dedup.
using KeyExtractor = Key (*)(std::span<const std::uint8_t>);

/// Index entry for one data block.
struct BlockHandle {
  std::vector<std::uint64_t> flash_pages;  ///< Linear page numbers.
  Key first_key;
  Key last_key;
  std::uint16_t record_count = 0;
  /// CRC32C over the full 32 KiB block image, computed at build time and
  /// verified on every checked read. Kept in the index metadata (device
  /// DRAM) rather than the block trailer so the on-flash block geometry —
  /// and with it records_per_block — is unchanged.
  std::uint32_t crc32c = 0;
};

/// A tombstone recorded in the SST's metadata region.
struct Tombstone {
  Key key;
  SequenceNumber seq = 0;
};

/// Immutable SST metadata (the index block content).
struct SSTable {
  std::uint64_t id = 0;
  std::uint32_t level = 1;
  std::uint32_t record_bytes = 0;
  Key min_key;
  Key max_key;
  SequenceNumber min_seq = 0;
  SequenceNumber max_seq = 0;
  std::vector<BlockHandle> blocks;
  std::vector<Tombstone> tombstones;  ///< Key-sorted.
  BloomFilter bloom;  ///< Over record AND tombstone keys (device DRAM).

  [[nodiscard]] std::uint64_t record_count() const noexcept;
  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    return std::uint64_t{kDataBlockBytes} * blocks.size();
  }
  /// Index of the block that may contain `key` (first/last key range),
  /// or -1 if none.
  [[nodiscard]] int find_block(const Key& key) const noexcept;
  /// True if the tombstone list has an entry for `key` with seq >= `seq`.
  [[nodiscard]] const Tombstone* find_tombstone(const Key& key) const noexcept;
};

/// Builds tables one at a time: the constructor opens table `id`, finish()
/// returns it, and start() opens the next one in the same builder, which
/// keeps its block image and its Bloom key buffer across tables.
class SSTBuilder {
 public:
  /// `expected_records` only sizes the Bloom key buffer up front.
  SSTBuilder(std::uint64_t id, std::uint32_t level, std::uint32_t record_bytes,
             KeyExtractor extractor, PlacementPolicy& placement,
             platform::FlashModel& flash, std::uint64_t expected_records = 0);

  /// Opens table `id`; the previous table must be finished.
  void start(std::uint64_t id);
  /// True from the constructor or start() until finish().
  [[nodiscard]] bool open() const noexcept { return table_ != nullptr; }

  /// The next record's slot (record_bytes long) in the open data block,
  /// flushing a full block first. Write the record there and commit() it;
  /// a slot left uncommitted is handed out again.
  [[nodiscard]] std::span<std::uint8_t> slot() {
    if (!block_builder_.has_space()) flush_block();
    return block_builder_.slot();
  }

  /// Adds the record written into slot(); keys must arrive in strictly
  /// ascending order.
  void commit(SequenceNumber seq) {
    const Key key = extractor_(block_builder_.slot());
    if (records_added_ == 0) {
      first_key_ = key;
    } else if (!(last_key_ < key)) {
      raise_unordered(key);
    }
    if (block_builder_.empty()) block_first_key_ = key;
    block_builder_.commit();
    last_key_ = key;
    ++records_added_;
    bloom_keys_.push_back(key);
    table_->min_seq = std::min(table_->min_seq, seq);
    table_->max_seq = std::max(table_->max_seq, seq);
  }

  /// Copies `record` into slot() and commits it.
  void add(std::span<const std::uint8_t> record, SequenceNumber seq);

  /// Records a tombstone (also ascending relative to other adds).
  void add_tombstone(const Key& key, SequenceNumber seq);

  [[nodiscard]] std::uint64_t records_added() const noexcept {
    return records_added_;
  }

  /// Finalizes the table: flushes the open block, writes all block pages
  /// to flash (content-immediate; timing is charged by the caller when
  /// flush/compaction latency matters) and returns the metadata. The
  /// builder is then closed until start().
  [[nodiscard]] std::shared_ptr<SSTable> finish();

 private:
  void flush_block();
  /// Takes the key by value: a reference would keep commit()'s key in
  /// memory, and copying it on would reload 16 bytes just written as two
  /// 8-byte halves, which the store buffer cannot forward.
  [[noreturn]] void raise_unordered(Key key) const;

  std::shared_ptr<SSTable> table_;  ///< The open table; null once finished.
  KeyExtractor extractor_;
  PlacementPolicy& placement_;
  platform::FlashModel& flash_;
  std::uint32_t level_;
  std::uint32_t record_bytes_;
  DataBlockBuilder block_builder_;

  Key first_key_;        ///< Of the first record; valid once one is added.
  Key last_key_;         ///< Of the last record added.
  Key block_first_key_;  ///< Of the open block's first record.
  std::uint64_t records_added_ = 0;
  std::vector<Key> bloom_keys_;  ///< Filter built at finish(), then cleared.
};

}  // namespace ndpgen::kv
