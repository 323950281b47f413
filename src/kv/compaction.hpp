// Leveled compaction (the LSM merge process).
//
// Merges the SSTs of level L with the overlapping SSTs of level L+1 into
// new, fully deduplicated SSTs at L+1: outdated key-value pairs are purged
// and their space reclaimed (paper §III-A). Tombstones are dropped when
// they reach the bottom level.
//
// Recency is resolved at table granularity (tables carry [min_seq,
// max_seq]); the store's flush/compaction discipline guarantees tables
// that can hold the same key are totally ordered by sequence range.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "kv/placement.hpp"
#include "kv/sst_builder.hpp"
#include "kv/version.hpp"
#include "platform/flash.hpp"

namespace ndpgen::kv {

/// Incremental digest hook: called with every record that becomes live in
/// an SST (added=true: flush, bulk load, compaction output) and every
/// record a compaction consumes from its inputs (added=false). XOR-style
/// accumulators upstream (the cluster's partition digests) track the
/// SST-resident record multiset without re-reading flash. Purged record
/// versions are consumed but never re-added, so overwrites and dropped
/// tombstone targets fall out of the digest naturally.
using RecordHook =
    std::function<void(std::span<const std::uint8_t>, bool added)>;

struct CompactionConfig {
  /// C1 SST count that triggers compaction into C2.
  std::uint32_t l1_trigger = 8;
  /// Data blocks per output SST.
  std::uint32_t output_sst_blocks = 64;
};

/// Size target of C2 in bytes; each deeper level is
/// kLevelSizeMultiplier x larger.
inline constexpr std::uint64_t kLevelBaseBytes = 8ull * 1024 * 1024;
inline constexpr std::uint32_t kLevelSizeMultiplier = 10;

struct CompactionStats {
  std::uint64_t compactions = 0;
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t records_purged = 0;  ///< Outdated versions removed.
  std::uint64_t tombstones_dropped = 0;
};

class Compactor {
 public:
  /// `timed` charges the compaction I/O (input page reads + output page
  /// programs) on the platform's virtual clock.
  Compactor(Version& version, PlacementPolicy& placement,
            platform::FlashModel& flash, KeyExtractor extractor,
            std::uint32_t record_bytes, CompactionConfig config, bool timed);

  /// Runs compactions until no trigger fires. Returns compactions done.
  std::uint64_t run();

  /// Compacts level L into L+1 unconditionally.
  void compact_level(std::uint32_t level);

  /// True if some level currently exceeds its trigger.
  [[nodiscard]] bool needs_compaction() const;

  [[nodiscard]] const CompactionStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] std::uint64_t next_sst_id() const noexcept { return next_id_; }
  void set_next_sst_id(std::uint64_t id) noexcept { next_id_ = id; }

  /// Installs the incremental digest hook (see RecordHook above). Must be
  /// set before the first compaction that should be tracked.
  void set_record_hook(RecordHook hook) { record_hook_ = std::move(hook); }

 private:
  [[nodiscard]] std::uint64_t level_target_bytes(std::uint32_t level) const;
  [[nodiscard]] int pick_level() const;

  Version& version_;
  PlacementPolicy& placement_;
  platform::FlashModel& flash_;
  KeyExtractor extractor_;
  std::uint32_t record_bytes_;
  CompactionConfig config_;
  bool timed_;
  CompactionStats stats_;
  RecordHook record_hook_;  ///< Null = no digest tracking.
  std::uint64_t next_id_ = 1'000'000;  ///< Compaction-output SST ids.
};

}  // namespace ndpgen::kv
