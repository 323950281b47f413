#include "kv/sst_reader.hpp"

#include "kv/block_format.hpp"
#include "obs/obs.hpp"
#include "support/crc32c.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

SSTReader::SSTReader(const SSTable& table, platform::FlashModel& flash,
                     KeyExtractor extractor)
    : table_(table), flash_(flash), extractor_(extractor) {
  NDPGEN_CHECK_ARG(static_cast<bool>(extractor_),
                   "SST reader needs a key extractor");
}

std::vector<std::uint8_t> SSTReader::read_block(std::uint32_t index) const {
  NDPGEN_CHECK_ARG(index < table_.blocks.size(), "block index out of range");
  const BlockHandle& handle = table_.blocks[index];
  std::vector<std::uint8_t> block;
  block.reserve(kDataBlockBytes);
  for (const std::uint64_t page : handle.flash_pages) {
    const auto data = flash_.page_data(flash_.delinearize(page));
    block.insert(block.end(), data.begin(), data.end());
  }
  NDPGEN_CHECK(block.size() == kDataBlockBytes,
               "assembled block has wrong size");
  if (obs::Observability* obs = flash_.observability(); obs != nullptr) {
    obs->metrics.add(obs->metrics.counter("kv.sst.blocks_read"), 1);
    if (obs->tracing()) {
      obs->trace->instant(
          obs->trace->track("kv.sst"), "read_block", "kv",
          flash_.queue().now(),
          "{\"sst\":" + std::to_string(table_.id) +
              ",\"level\":" + std::to_string(table_.level) +
              ",\"block\":" + std::to_string(index) + "}");
    }
  }
  return block;
}

Result<std::vector<std::uint8_t>> SSTReader::read_block_checked(
    std::uint32_t index) const {
  std::vector<std::uint8_t> block = read_block(index);
  const BlockHandle& handle = table_.blocks[index];
  // Materialize any pending ECC miscorrection: the reliability model only
  // *marked* the page; flipping one bit in the assembled copy makes the
  // corruption real enough for the CRC to catch, while the flash content
  // itself stays correct for the recovery re-read.
  const std::uint32_t page_bytes = flash_.topology().page_bytes;
  for (std::size_t i = 0; i < handle.flash_pages.size(); ++i) {
    if (flash_.consume_silent_corruption(handle.flash_pages[i])) {
      block[i * page_bytes] ^= 0x01;
    }
  }
  // crc32c == 0 means "unknown" (a table restored from a pre-checksum
  // manifest); such blocks are accepted unverified.
  if (handle.crc32c != 0 && support::crc32c(block) != handle.crc32c) {
    if (obs::Observability* obs = flash_.observability(); obs != nullptr) {
      obs->metrics.add(obs->metrics.counter("kv.sst.checksum_mismatches"), 1);
    }
    return Result<std::vector<std::uint8_t>>::failure(
        ErrorKind::kStorage,
        "checksum mismatch in sst " + std::to_string(table_.id) + " block " +
            std::to_string(index));
  }
  return block;
}

std::vector<std::uint8_t> SSTReader::reread_block_recovered(
    std::uint32_t index) const {
  // Drop any still-pending corruption marks first so the recovered copy
  // assembles from clean content.
  for (const std::uint64_t page : table_.blocks[index].flash_pages) {
    (void)flash_.consume_silent_corruption(page);
  }
  return read_block(index);
}

std::optional<std::vector<std::uint8_t>> SSTReader::get(const Key& key) const {
  const int block_index = table_.find_block(key);
  if (block_index < 0) return std::nullopt;
  const std::vector<std::uint8_t> block =
      read_block(static_cast<std::uint32_t>(block_index));
  if (const auto record = find_in_block(block, key, extractor_)) {
    return std::vector<std::uint8_t>(record->begin(), record->end());
  }
  return std::nullopt;
}

std::optional<std::span<const std::uint8_t>> SSTReader::find_in_block(
    std::span<const std::uint8_t> block, const Key& key,
    KeyExtractor extractor) {
  const BlockTrailer trailer = read_trailer(block);
  // Binary search over the fixed-size records.
  std::uint32_t lo = 0;
  std::uint32_t hi = trailer.record_count;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const auto record = block_record(block, trailer, mid);
    const Key mid_key = extractor(record);
    if (mid_key < key) {
      lo = mid + 1;
    } else if (key < mid_key) {
      hi = mid;
    } else {
      return record;
    }
  }
  return std::nullopt;
}

void SSTReader::for_each_record(
    const std::function<void(std::span<const std::uint8_t>)>& fn) const {
  for (std::uint32_t i = 0; i < table_.blocks.size(); ++i) {
    const std::vector<std::uint8_t> block = read_block(i);
    const BlockTrailer trailer = read_trailer(block);
    for (std::uint32_t r = 0; r < trailer.record_count; ++r) {
      fn(block_record(block, trailer, r));
    }
  }
}

}  // namespace ndpgen::kv
