// ManifestStore: two-phase atomic manifest commit on reserved flash.
//
// A manifest commit must be atomic under power loss or a crashed device
// recovers into a half-updated Version. The store gets that atomicity
// from a classic staged-record + commit-pointer protocol over reserved
// metadata blocks:
//
//   phase 1 — STAGE: erase the target slot (two slots, alternating by
//     commit number, so the previous committed payload is never touched),
//     then program the encoded ManifestImage into the slot's pages.
//   phase 2 — COMMIT: program ONE pointer page (commit number, slot,
//     payload length, payload CRC32C, pointer CRC32C) into the append-only
//     pointer log. The commit point is that single page program.
//
// A crash during phase 1 leaves the pointer log untouched: recovery finds
// the previous pointer and the previous slot intact. A crash during
// phase 2 tears the pointer page: its CRC fails, recovery counts a
// rollback and falls back to the newest pointer whose payload verifies.
#pragma once

#include <cstdint>
#include <vector>

#include "kv/manifest.hpp"
#include "kv/placement.hpp"
#include "platform/flash.hpp"

namespace ndpgen::kv {

struct ManifestRecoverResult {
  bool found = false;          ///< False = no committed manifest (new store).
  ManifestImage image;         ///< Valid when found.
  std::uint64_t commit_seq = 0;
  /// Pointer pages that were written but failed validation (torn phase-2
  /// programs) or whose payload failed its CRC — each one is a
  /// half-committed manifest that recovery rolled back.
  std::uint64_t rollbacks = 0;
  std::uint64_t pointers_scanned = 0;
};

class ManifestStore {
 public:
  /// Reserves 2 * `slot_blocks` + `pointer_blocks` metadata blocks, in
  /// deterministic order (construct WAL and store in the same order when
  /// recovering). `timed` charges program/erase latency on the DES clock.
  ManifestStore(platform::FlashModel& flash, PlacementPolicy& placement,
                std::uint32_t slot_blocks, std::uint32_t pointer_blocks,
                bool timed);

  /// Two-phase commit of `image`. Throws Error{kStorage} when the payload
  /// outgrows a slot or the pointer log is full.
  void commit(const ManifestImage& image);

  /// Scans the pointer log and returns the newest committed manifest that
  /// fully verifies, rolling back torn commits. Also positions the store
  /// so subsequent commit() calls append after everything found.
  [[nodiscard]] ManifestRecoverResult recover();

  [[nodiscard]] std::uint64_t commit_seq() const noexcept {
    return commit_seq_;
  }
  [[nodiscard]] std::uint64_t pointer_capacity() const noexcept {
    return std::uint64_t{static_cast<std::uint32_t>(pointer_blocks_.size())} *
           flash_.topology().pages_per_block;
  }

 private:
  [[nodiscard]] std::uint64_t slot_linear(std::uint64_t commit_seq,
                                          std::uint64_t page) const;
  [[nodiscard]] std::uint64_t pointer_linear(std::uint64_t index) const;
  void erase_slot(std::uint64_t commit_seq);
  void program(const platform::FlashAddr& addr,
               std::span<const std::uint8_t> data);

  platform::FlashModel& flash_;
  PlacementPolicy& placement_;
  bool timed_ = false;
  /// slots_[parity] = the block-in-LUN ids of that slot.
  std::vector<std::uint32_t> slots_[2];
  std::vector<std::uint32_t> pointer_blocks_;
  std::uint64_t commit_seq_ = 0;
  std::uint64_t pointer_cursor_ = 0;
};

}  // namespace ndpgen::kv
