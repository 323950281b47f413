// nKV: the LSM key-value store on native computational storage.
//
// Writes land in the MemTable (C0); when full it is flushed — without
// compaction — into an SST of C1; leveled compaction maintains C2..Ck.
// All SST data blocks live on physical flash pages placed by the
// PlacementPolicy, so NDP operations can be handed raw physical block
// lists (paper §III-B: the store operates on physical addresses with no
// file system or block layer in between).
//
// This class is the *structural* store: content operations are
// byte-accurate but untimed. The timed GET/SCAN paths (software NDP on the
// ARM model, hardware NDP on simulated PEs) live in src/ndp and walk the
// same structures while charging platform time.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>

#include "kv/compaction.hpp"
#include "kv/manifest_store.hpp"
#include "kv/memtable.hpp"
#include "kv/placement.hpp"
#include "kv/version.hpp"
#include "kv/wal.hpp"
#include "platform/cosmos.hpp"

namespace ndpgen::kv {

/// Crash-consistent write path (see kv/wal.hpp, kv/manifest_store.hpp):
/// puts/deletes are WAL-journaled before they are acknowledged, and every
/// flush/compaction publishes the new Version through a two-phase atomic
/// manifest commit, so recover() can rebuild the store after power loss at
/// ANY write step.
struct DurabilityConfig {
  bool enabled = false;
};

/// Reserved flash blocks for the WAL of a durable store (one synced page
/// per put; flushes truncate, so this bounds puts per flush interval).
inline constexpr std::uint32_t kWalBlocks = 4;
/// Reserved blocks per manifest slot (two slots alternate).
inline constexpr std::uint32_t kManifestSlotBlocks = 1;
/// Reserved blocks for the append-only commit-pointer log (one page per
/// commit; bounds the number of flush/compaction commits per run).
inline constexpr std::uint32_t kManifestPointerBlocks = 2;

struct DBConfig {
  std::uint32_t record_bytes = 0;  ///< Fixed tuple size (required).
  KeyExtractor extractor = nullptr;  ///< Required.
  std::size_t memtable_bytes = 2 * 1024 * 1024;
  /// Flash placement groups (§III-B). 1 = stripe every level over all
  /// channels (maximum scan parallelism, the evaluation setting);
  /// N > 1 = give each LSM level its own channel group so compaction
  /// cannot block foreground scans (the isolation trade-off —
  /// see bench/ablation_placement).
  std::uint32_t level_groups = 1;
  CompactionConfig compaction{};
  bool auto_flush = true;    ///< Flush when the MemTable fills.
  bool auto_compact = true;  ///< Compact when triggers fire.
  /// Charge flush/compaction flash I/O on the virtual clock (write-path
  /// experiments). Dataset setup usually leaves this off.
  bool timed_writes = false;
  /// Stores sharing one flash device MUST share one placement policy so
  /// their physical page allocations never collide. Leave null for a
  /// store that owns the device alone.
  std::shared_ptr<PlacementPolicy> shared_placement;
  DurabilityConfig durability{};
};

struct DBStats {
  std::uint64_t puts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t gets = 0;
  std::uint64_t flushes = 0;
};

/// What recover() found and repaired. Every counter is also published as a
/// kv.recovery.* metric so sweeps can assert on the paths they exercised.
struct RecoveryReport {
  bool manifest_found = false;
  std::uint64_t manifest_commit_seq = 0;
  /// Half-committed manifests rolled back (torn pointer page or a staged
  /// payload that no longer verifies).
  std::uint64_t manifest_rollbacks = 0;
  std::uint64_t tables_restored = 0;
  std::uint64_t sst_blocks_verified = 0;
  /// Committed SST blocks failing their per-block CRC. The commit protocol
  /// makes this impossible (manifests commit only after programs finish),
  /// so anything nonzero is an invariant violation.
  std::uint64_t torn_sst_blocks = 0;
  std::uint64_t wal_entries_replayed = 0;  ///< seq > manifest bound.
  std::uint64_t wal_entries_skipped = 0;   ///< Already covered by an SST.
  std::uint64_t wal_torn_pages = 0;        ///< Torn tail detected + cut.
  /// Written pages referenced by neither the committed manifest nor a
  /// metadata region — SSTs of un-committed flushes/compactions, including
  /// torn ones (counted separately).
  std::uint64_t orphan_pages_discarded = 0;
  std::uint64_t torn_pages_discarded = 0;
  std::uint64_t unstable_blocks_erased = 0;  ///< Interrupted erases redone.
  platform::SimTime elapsed = 0;  ///< Simulated recovery read/erase time.
};

struct RecoveryOptions {
  /// Invoked while the store is mid-recovery (recovering() == true), after
  /// the manifest restore but before WAL replay — lets tests assert that
  /// NDP offload refuses a half-recovered store.
  std::function<void()> mid_recovery_probe;
};

class NKV;

/// One bulk load of key-sorted records into one level as full SSTs
/// (dataset setup; equivalent to an ingestion path). The loader writes
/// each record straight into slot(), the next record of the open data
/// block, and commit()s it; finish() seals the last table. Nothing else
/// may write to the store while a load is open.
class BulkLoad {
 public:
  /// The next record's slot, record_bytes long. Ask for it only when a
  /// record will be committed: the first slot of a table opens the table.
  [[nodiscard]] std::span<std::uint8_t> slot();
  /// Adds the record written into slot(); keys must strictly ascend.
  void commit();
  /// Seals the last table and commits the manifest of a durable store.
  void finish();

 private:
  friend class NKV;
  BulkLoad(NKV& db, std::uint32_t level, std::uint64_t records_per_sst);

  NKV& db_;
  std::uint32_t level_;
  std::uint64_t records_per_sst_;
  /// Built at the first slot(); one builder, and so one block image and
  /// Bloom key buffer, serves every table of the load.
  std::unique_ptr<SSTBuilder> builder_;
  std::uint64_t in_current_ = 0;  ///< Records in builder_'s open table.
  std::span<std::uint8_t> slot_;  ///< The last slot() handed out.
};

class NKV {
 public:
  NKV(platform::CosmosPlatform& platform, DBConfig config);

  /// Inserts/overwrites one record (key derived via the extractor).
  void put(std::span<const std::uint8_t> record);

  /// Deletes a key (tombstone).
  void del(const Key& key);

  /// Point lookup, recency-correct across C0..Ck. Untimed.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(const Key& key);

  /// Flushes C0 into a new C1 SST (no compaction on this path).
  void flush();

  /// Runs pending compactions; returns how many ran.
  std::uint64_t compact();

  /// Opens a bulk load into `level` (see BulkLoad).
  [[nodiscard]] BulkLoad bulk_load(std::uint32_t level,
                                   std::uint64_t records_per_sst);

  /// Bulk-loads the records `next_record` produces, one copy each, through
  /// bulk_load().
  void bulk_load_sorted(
      std::uint32_t level,
      const std::function<bool(std::vector<std::uint8_t>&)>& next_record,
      std::uint64_t records_per_sst);

  /// Crash recovery for a durable store. Call on a freshly constructed NKV
  /// over the surviving flash device (detach any crash scheduler first —
  /// recovery runs with power restored). Re-erases unstable blocks, rolls
  /// back half-committed manifests, CRC-verifies every committed SST
  /// block, garbage-collects orphan pages (including torn ones), replays
  /// the WAL tail into the MemTable, and rewrites the WAL so later crashes
  /// recover again. Acknowledged writes are never lost; un-acknowledged
  /// ones never half-survive.
  RecoveryReport recover(const RecoveryOptions& options = {});

  /// True while recover() runs; NDP offload must refuse the store.
  [[nodiscard]] bool recovering() const noexcept { return recovering_; }

  [[nodiscard]] const WriteAheadLog* wal() const noexcept {
    return wal_.get();
  }
  [[nodiscard]] const ManifestStore* manifest_store() const noexcept {
    return manifest_store_.get();
  }

  [[nodiscard]] const Version& version() const noexcept { return version_; }
  [[nodiscard]] const MemTable& memtable() const noexcept {
    return *memtable_;
  }
  [[nodiscard]] const DBConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DBStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const CompactionStats& compaction_stats() const noexcept {
    return compactor_.stats();
  }
  [[nodiscard]] platform::CosmosPlatform& platform() noexcept {
    return platform_;
  }
  [[nodiscard]] PlacementPolicy& placement() noexcept { return *placement_; }

  [[nodiscard]] SequenceNumber last_sequence() const noexcept { return seq_; }

  /// Installs the incremental digest hook (see kv/compaction.hpp). Fires
  /// for every record an SST gains (flush, bulk load, compaction output)
  /// or loses (compaction input). Install before loading data so the
  /// digest covers the whole store.
  void set_record_hook(RecordHook hook);

 private:
  friend class BulkLoad;

  void charge_programs(const SSTable& table);
  void journal_put(SequenceNumber seq, std::span<const std::uint8_t> record);
  void journal_del(SequenceNumber seq, const Key& key);
  void commit_manifest();

  platform::CosmosPlatform& platform_;
  DBConfig config_;
  std::shared_ptr<PlacementPolicy> placement_;
  Version version_;
  std::unique_ptr<MemTable> memtable_;
  Compactor compactor_;
  RecordHook record_hook_;  ///< Null = no digest tracking.
  SequenceNumber seq_ = 0;
  std::uint64_t next_sst_id_ = 1;
  DBStats stats_;
  std::unique_ptr<WriteAheadLog> wal_;
  std::unique_ptr<ManifestStore> manifest_store_;
  SequenceNumber durable_seq_ = 0;
  bool recovering_ = false;
};

}  // namespace ndpgen::kv
