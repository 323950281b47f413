// Write-ahead log: CRC-chained durability for MemTable (C0) mutations.
//
// The MemTable lives in device DRAM and dies with power; a durable store
// therefore journals every put/delete into reserved flash blocks before
// acknowledging it. The log is page-granular: sync() seals the buffered
// entries into one NAND page program (the acknowledgement point — NAND
// pages are never reprogrammed, so a partially filled page is padded and
// the writer moves on). Entries carry a chained CRC32C — each entry's CRC
// continues from the previous entry's — and every sealed page carries a
// page-level CRC over its entry region, so replay detects exactly where a
// torn tail begins: the page whose program was interrupted fails its page
// CRC, and everything after it is unreachable.
//
// Truncation (reset()) erases the log blocks outright: it runs only after
// a manifest commit covered every logged entry, so losing the log there is
// safe by construction — and an erase interrupted mid-truncation leaves an
// unstable block that recovery re-erases.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "kv/key.hpp"
#include "kv/placement.hpp"
#include "platform/flash.hpp"

namespace ndpgen::kv {

inline constexpr std::uint8_t kWalPut = 1;
inline constexpr std::uint8_t kWalDelete = 2;

/// One CRC-verified log entry, as written and as replayed.
struct WalEntry {
  std::uint8_t type = kWalPut;  ///< kWalPut | kWalDelete.
  SequenceNumber seq = 0;
  /// The full record for puts; the 16-byte packed key for deletes.
  std::vector<std::uint8_t> payload;
};

struct WalReplayResult {
  std::vector<WalEntry> entries;     ///< In append order, CRC-verified.
  std::uint64_t pages_scanned = 0;   ///< Sealed pages that verified.
  std::uint64_t torn_pages = 0;      ///< 1 when replay hit a torn tail.
};

class WriteAheadLog {
 public:
  /// Reserves `blocks` metadata blocks from `placement` (deterministic
  /// order — a store reconstructed over the same flash finds its log in
  /// the same blocks). `timed` additionally charges program/erase latency
  /// on the DES clock (timed_writes stores).
  WriteAheadLog(platform::FlashModel& flash, PlacementPolicy& placement,
                std::uint32_t blocks, bool timed);

  /// Buffers one entry into the open page. Not yet durable — call sync().
  void append(std::uint8_t type, SequenceNumber seq,
              std::span<const std::uint8_t> payload);

  /// Seals and programs the open page; after it returns, every appended
  /// entry either survives power loss or fails its CRC (never half-true).
  /// Throws Error{kStorage} when the log blocks are full (flush to
  /// truncate). No-op when nothing is buffered.
  void sync();

  /// Truncation: erases every log block and restarts the page cursor and
  /// CRC chain. Only call once a committed manifest covers all entries.
  void reset();

  /// Scans sealed pages from the start of the log, verifying page and
  /// chain CRCs, and returns everything before the first torn/unwritten
  /// page. Call on a freshly constructed log (recovery), before reset().
  [[nodiscard]] WalReplayResult replay() const;

  [[nodiscard]] std::uint64_t capacity_pages() const noexcept {
    return std::uint64_t{static_cast<std::uint32_t>(blocks_.size())} *
           flash_.topology().pages_per_block;
  }
  [[nodiscard]] std::uint64_t entries_synced() const noexcept {
    return entries_synced_;
  }

 private:
  [[nodiscard]] std::uint64_t linear_of(std::uint64_t page_index) const;
  void run_queue_until_done(const std::shared_ptr<std::size_t>& pending);

  platform::FlashModel& flash_;
  PlacementPolicy& placement_;
  std::vector<std::uint32_t> blocks_;  ///< Block-in-LUN ids on LUN 0.
  bool timed_ = false;

  /// The open page image: its header (filled in by sync()), then the
  /// entries appended so far.
  std::vector<std::uint8_t> buffer_;
  std::uint64_t next_page_ = 0;        ///< Sealed-page cursor.
  std::uint32_t chain_crc_ = 0;
  std::uint64_t entries_synced_ = 0;
  std::uint64_t buffered_entries_ = 0;
};

}  // namespace ndpgen::kv
