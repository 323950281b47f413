// One simulated smart-SSD cluster member.
//
// Each device is a full independent stack — its own CosmosPlatform (DES,
// flash, NVMe link, PEs, fault injector seeded per device), its own nKV
// store holding only the partitions placement assigned to it, and its own
// HybridExecutor. Nothing is shared between members: device timelines,
// fault streams and flash layouts are isolated, exactly like N physical
// SSDs behind one host frontend. The coordinator talks to members only
// through elapsed virtual time and result bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/antientropy.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "platform/cosmos.hpp"

namespace ndpgen::cluster {

class SmartSsdDevice {
 public:
  /// Builds the platform + store; the executor attaches after the
  /// builder instantiates the device's PEs (attach_executor).
  SmartSsdDevice(std::uint32_t id, platform::CosmosConfig cosmos_config,
                 kv::DBConfig db_config);

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  [[nodiscard]] platform::CosmosPlatform& platform() noexcept {
    return *platform_;
  }
  [[nodiscard]] kv::NKV& db() noexcept { return *db_; }

  /// Bulk-loads key-sorted records (this device's partition subset) and
  /// tracks the payload volume for rebuild sizing.
  std::uint64_t load_sorted(
      std::uint32_t level,
      const std::function<bool(std::vector<std::uint8_t>&)>& next_record,
      std::uint64_t records_per_sst);

  /// Attaches the NDP executor over artifacts owned by the caller (the
  /// CompileResult outlives the cluster, as in every bench/test).
  void attach_executor(const analysis::AnalyzedParser& analyzed,
                       const hwgen::OperatorSet& operators,
                       ndp::ExecutorConfig exec_config);

  [[nodiscard]] ndp::HybridExecutor& executor();

  [[nodiscard]] std::uint64_t records_loaded() const noexcept {
    return records_loaded_;
  }
  [[nodiscard]] std::uint64_t bytes_loaded() const noexcept {
    return bytes_loaded_;
  }

  // --- Replica integrity ------------------------------------------------

  /// Turns on incremental partition digests: installs the store's record
  /// hook so flush / bulk load / compaction keep the MAINTAINED trees
  /// current. Must run before any data is loaded.
  void enable_digests(std::uint32_t partitions, PartitionOfKey partition_of);

  [[nodiscard]] bool digests_enabled() const noexcept {
    return !maintained_.empty();
  }
  /// What this device SHOULD hold (updated at write time, pre-corruption).
  [[nodiscard]] const PartitionDigestSet& maintained_digests() const noexcept {
    return maintained_;
  }
  /// What this device's flash ACTUALLY holds (re-read every call).
  [[nodiscard]] PartitionDigestSet observed_digests();
  [[nodiscard]] const PartitionOfKey& partition_of() const noexcept {
    return partition_of_;
  }

  /// Flips one record byte in `count` deterministically chosen SST blocks
  /// (seeded pick over the current block list). With `wrong_data` the
  /// block's index CRC is rewritten to match the rotted content, so only
  /// digest comparison — not CRC scrubbing — can catch it. Original page
  /// bytes and CRCs go into a repair ledger. Returns blocks corrupted.
  std::uint64_t corrupt_blocks(std::uint32_t count, std::uint64_t seed,
                               bool wrong_data = false);

  /// Restores every ledgered page and CRC (the replica-sourced repair
  /// write, content side; the coordinator charges its time). Returns
  /// flash bytes rewritten.
  std::uint64_t repair_corruption();

  [[nodiscard]] bool has_corruption() const noexcept {
    return !corruption_ledger_.empty();
  }

 private:
  /// One corrupted block: enough state to undo the damage byte-exactly.
  struct CorruptionRecord {
    std::shared_ptr<kv::SSTable> table;
    std::uint32_t block_index = 0;
    std::uint32_t original_crc = 0;
    /// (linear page number, original page image) per touched page.
    std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> pages;
  };

  std::uint32_t id_;
  std::unique_ptr<platform::CosmosPlatform> platform_;
  std::unique_ptr<kv::NKV> db_;
  std::unique_ptr<ndp::HybridExecutor> executor_;
  std::uint64_t records_loaded_ = 0;
  std::uint64_t bytes_loaded_ = 0;
  PartitionDigestSet maintained_;
  PartitionOfKey partition_of_;
  std::vector<CorruptionRecord> corruption_ledger_;
};

}  // namespace ndpgen::cluster
