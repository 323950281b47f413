#include "kv/sst_builder.hpp"

#include <algorithm>
#include <cstring>

#include "support/crc32c.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

std::uint64_t SSTable::record_count() const noexcept {
  std::uint64_t count = 0;
  for (const auto& block : blocks) count += block.record_count;
  return count;
}

int SSTable::find_block(const Key& key) const noexcept {
  // Binary search over block ranges (the index-block traversal of §III-A).
  int lo = 0;
  int hi = static_cast<int>(blocks.size()) - 1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    if (key < blocks[static_cast<std::size_t>(mid)].first_key) {
      hi = mid - 1;
    } else if (blocks[static_cast<std::size_t>(mid)].last_key < key) {
      lo = mid + 1;
    } else {
      return mid;
    }
  }
  return -1;
}

const Tombstone* SSTable::find_tombstone(const Key& key) const noexcept {
  const auto it = std::lower_bound(
      tombstones.begin(), tombstones.end(), key,
      [](const Tombstone& t, const Key& k) { return t.key < k; });
  if (it != tombstones.end() && it->key == key) return &*it;
  return nullptr;
}

SSTBuilder::SSTBuilder(std::uint64_t id, std::uint32_t level,
                       std::uint32_t record_bytes, KeyExtractor extractor,
                       PlacementPolicy& placement,
                       platform::FlashModel& flash,
                       std::uint64_t expected_records)
    : extractor_(extractor),
      placement_(placement),
      flash_(flash),
      level_(level),
      record_bytes_(record_bytes),
      block_builder_(record_bytes) {
  NDPGEN_CHECK_ARG(extractor_ != nullptr, "SST builder needs a key extractor");
  NDPGEN_CHECK_ARG(kDataBlockBytes % flash.topology().page_bytes == 0,
                   "data block must be a whole number of flash pages");
  bloom_keys_.reserve(expected_records);
  start(id);
}

void SSTBuilder::start(std::uint64_t id) {
  NDPGEN_CHECK(table_ == nullptr, "SST builder already holds an open table");
  table_ = std::make_shared<SSTable>();
  table_->id = id;
  table_->level = level_;
  table_->record_bytes = record_bytes_;
  table_->min_key = Key::max();
  table_->max_key = Key::min();
  table_->min_seq = ~SequenceNumber{0};
  table_->max_seq = 0;
  records_added_ = 0;
}

void SSTBuilder::raise_unordered(Key key) const {
  ndpgen::raise(ErrorKind::kStorage,
                "SST records must be added in strictly ascending key "
                "order (got " + key.to_string() + " after " +
                    last_key_.to_string() + ")");
}

void SSTBuilder::add(std::span<const std::uint8_t> record,
                     SequenceNumber seq) {
  NDPGEN_CHECK_ARG(record.size() == record_bytes_,
                   "record size does not match the block geometry");
  std::memcpy(slot().data(), record.data(), record.size());
  commit(seq);
}

void SSTBuilder::add_tombstone(const Key& key, SequenceNumber seq) {
  table_->tombstones.push_back(Tombstone{key, seq});
  bloom_keys_.push_back(key);
  table_->min_key = std::min(table_->min_key, key);
  table_->max_key = std::max(table_->max_key, key);
  table_->min_seq = std::min(table_->min_seq, seq);
  table_->max_seq = std::max(table_->max_seq, seq);
}

void SSTBuilder::flush_block() {
  if (block_builder_.empty()) return;
  BlockHandle handle;
  handle.first_key = block_first_key_;
  handle.last_key = last_key_;
  handle.record_count = static_cast<std::uint16_t>(
      block_builder_.record_count());
  const std::span<const std::uint8_t> block = block_builder_.seal();
  handle.crc32c = support::crc32c(block);

  const std::uint32_t page_bytes = flash_.topology().page_bytes;
  const std::uint32_t pages = kDataBlockBytes / page_bytes;
  handle.flash_pages =
      placement_.allocate_block_pages(level_, pages);
  for (std::uint32_t i = 0; i < pages; ++i) {
    const auto addr = flash_.delinearize(handle.flash_pages[i]);
    flash_.write_page_immediate(
        addr, block.subspan(std::size_t{i} * page_bytes, page_bytes));
  }
  table_->blocks.push_back(std::move(handle));
}

std::shared_ptr<SSTable> SSTBuilder::finish() {
  flush_block();
  if (records_added_ > 0) {
    // Records arrive ascending: the first and last bound their keys.
    table_->min_key = std::min(table_->min_key, first_key_);
    table_->max_key = std::max(table_->max_key, last_key_);
  }
  std::sort(table_->tombstones.begin(), table_->tombstones.end(),
            [](const Tombstone& a, const Tombstone& b) {
              return a.key != b.key ? a.key < b.key : a.seq > b.seq;
            });
  // Keep only the newest tombstone per key.
  table_->tombstones.erase(
      std::unique(table_->tombstones.begin(), table_->tombstones.end(),
                  [](const Tombstone& a, const Tombstone& b) {
                    return a.key == b.key;
                  }),
      table_->tombstones.end());
  if (table_->blocks.empty() && table_->tombstones.empty()) {
    ndpgen::raise(ErrorKind::kStorage, "refusing to build an empty SST");
  }
  table_->bloom = BloomFilter(bloom_keys_.size());
  table_->bloom.insert(bloom_keys_);
  bloom_keys_.clear();
  return std::move(table_);
}

}  // namespace ndpgen::kv
