#include "kv/wal.hpp"

#include <cstring>
#include <memory>

#include "support/bytes.hpp"
#include "support/crc32c.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

namespace {

constexpr std::uint32_t kWalPageMagic = 0x6e4b574c;  // "nKWL"
/// Page header: magic, entry_bytes, page CRC32C over the entry region.
constexpr std::size_t kWalPageHeader = 12;
/// Entry header: chained CRC32C, seq, type, payload length.
constexpr std::size_t kWalEntryHeader = 4 + 8 + 1 + 4;

}  // namespace

WriteAheadLog::WriteAheadLog(platform::FlashModel& flash,
                             PlacementPolicy& placement, std::uint32_t blocks,
                             bool timed)
    : flash_(flash), placement_(placement), timed_(timed) {
  NDPGEN_CHECK_ARG(blocks >= 1, "WAL needs at least one flash block");
  blocks_.reserve(blocks);
  for (std::uint32_t i = 0; i < blocks; ++i) {
    blocks_.push_back(placement_.reserve_meta_block());
  }
  buffer_.reserve(flash_.topology().page_bytes);
  buffer_.resize(kWalPageHeader);
}

std::uint64_t WriteAheadLog::linear_of(std::uint64_t page_index) const {
  const std::uint32_t per_block = flash_.topology().pages_per_block;
  return placement_.meta_page(
      blocks_[static_cast<std::size_t>(page_index / per_block)],
      static_cast<std::uint32_t>(page_index % per_block));
}

void WriteAheadLog::run_queue_until_done(
    const std::shared_ptr<std::size_t>& pending) {
  while (*pending > 0 && flash_.queue().step()) {
  }
}

void WriteAheadLog::append(std::uint8_t type, SequenceNumber seq,
                           std::span<const std::uint8_t> payload) {
  NDPGEN_CHECK_ARG(type == kWalPut || type == kWalDelete,
                   "unknown WAL entry type");
  const std::size_t page_bytes = flash_.topology().page_bytes;
  const std::size_t entry_size = kWalEntryHeader + payload.size();
  NDPGEN_CHECK_ARG(kWalPageHeader + entry_size <= page_bytes,
                   "WAL entry larger than one flash page");
  if (buffer_.size() + entry_size > page_bytes) {
    sync();  // Seal the full page; the chain continues across pages.
  }
  // The entry lands in place behind the open page's header: chained CRC,
  // then the body it covers (seq, type, payload length, payload).
  const std::size_t at = buffer_.size();
  buffer_.resize(at + entry_size);
  std::uint8_t* entry = buffer_.data() + at;
  support::store_u64(entry + 4, seq);
  entry[12] = type;
  support::store_u32(entry + 13, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty()) {
    std::memcpy(entry + kWalEntryHeader, payload.data(), payload.size());
  }
  const std::uint32_t entry_crc = support::crc32c_update(
      chain_crc_, std::span<const std::uint8_t>(entry + 4, entry_size - 4));
  support::store_u32(entry, entry_crc);
  chain_crc_ = entry_crc;
  ++buffered_entries_;
}

void WriteAheadLog::sync() {
  if (buffered_entries_ == 0) return;
  if (next_page_ >= capacity_pages()) {
    ndpgen::raise(ErrorKind::kStorage,
                  "WAL blocks exhausted (flush to truncate the log)");
  }
  const std::span<const std::uint8_t> entries =
      std::span<const std::uint8_t>(buffer_).subspan(kWalPageHeader);
  support::store_u32(buffer_.data(), kWalPageMagic);
  support::store_u32(buffer_.data() + 4,
                     static_cast<std::uint32_t>(entries.size()));
  support::store_u32(buffer_.data() + 8, support::crc32c(entries));

  const platform::FlashAddr addr = flash_.delinearize(linear_of(next_page_));
  flash_.write_page_immediate(addr, buffer_);
  if (timed_) {
    auto pending = std::make_shared<std::size_t>(1);
    flash_.charge_program(addr, [pending] { --*pending; });
    run_queue_until_done(pending);
  }
  ++next_page_;
  entries_synced_ += buffered_entries_;
  buffer_.resize(kWalPageHeader);
  buffered_entries_ = 0;
}

void WriteAheadLog::reset() {
  for (const std::uint32_t block : blocks_) {
    const platform::FlashAddr addr =
        flash_.delinearize(placement_.meta_page(block, 0));
    flash_.erase_block_immediate(addr);
    if (timed_) {
      auto pending = std::make_shared<std::size_t>(1);
      flash_.charge_erase(addr, [pending] { --*pending; });
      run_queue_until_done(pending);
    }
  }
  next_page_ = 0;
  chain_crc_ = 0;
  buffer_.resize(kWalPageHeader);
  buffered_entries_ = 0;
}

WalReplayResult WriteAheadLog::replay() const {
  WalReplayResult result;
  std::uint32_t chain = 0;
  const std::size_t page_bytes = flash_.topology().page_bytes;
  for (std::uint64_t index = 0; index < capacity_pages(); ++index) {
    const platform::FlashAddr addr = flash_.delinearize(linear_of(index));
    if (!flash_.page_written(addr)) break;  // End of the sealed log.
    const std::span<const std::uint8_t> data = flash_.page_data(addr);
    if (data.size() < kWalPageHeader ||
        support::get_u32(data, 0) != kWalPageMagic) {
      ++result.torn_pages;
      break;
    }
    const std::uint32_t entry_bytes = support::get_u32(data, 4);
    if (entry_bytes > page_bytes - kWalPageHeader ||
        support::crc32c(data.subspan(kWalPageHeader, entry_bytes)) !=
            support::get_u32(data, 8)) {
      ++result.torn_pages;  // Program interrupted mid-page.
      break;
    }
    std::size_t offset = kWalPageHeader;
    const std::size_t end = kWalPageHeader + entry_bytes;
    while (offset < end) {
      if (offset + kWalEntryHeader > end) {
        ++result.torn_pages;
        return result;
      }
      const std::uint32_t entry_crc = support::get_u32(data, offset);
      WalEntry entry;
      entry.seq = support::get_u64(data, offset + 4);
      entry.type = data[offset + 12];
      const std::uint32_t len = support::get_u32(data, offset + 13);
      if ((entry.type != kWalPut && entry.type != kWalDelete) ||
          offset + kWalEntryHeader + len > end) {
        ++result.torn_pages;
        return result;
      }
      const auto body = data.subspan(offset + 4, 8 + 1 + 4 + len);
      if (support::crc32c_update(chain, body) != entry_crc) {
        // Chain break: stale bytes from before an interrupted truncation,
        // or corruption — either way nothing past it is trustworthy.
        ++result.torn_pages;
        return result;
      }
      chain = entry_crc;
      const auto payload = data.subspan(offset + kWalEntryHeader, len);
      entry.payload.assign(payload.begin(), payload.end());
      result.entries.push_back(std::move(entry));
      offset += kWalEntryHeader + len;
    }
    ++result.pages_scanned;
  }
  return result;
}

}  // namespace ndpgen::kv
