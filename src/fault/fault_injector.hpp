// FaultInjector: deterministic, seed-driven fault decisions.
//
// Every decision is a pure function of (profile seed, fault stream,
// stable identifiers such as the linear page number, and a per-entity
// ordinal), hashed through SplitMix64. Two runs with the same profile and
// the same operation sequence therefore draw the exact same faults —
// which is what keeps --trace/--metrics output byte-identical under a
// fixed fault seed (the obs_determinism contract).
//
// The injector only *decides*; the device models (FlashModel, NvmeLink,
// the NDP executor, PlacementPolicy) apply the latency/behaviour consequences
// and publish the metrics.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "fault/fault_profile.hpp"

namespace ndpgen::fault {

/// Outcome of the NAND reliability model for one timed page read.
struct PageReadFault {
  std::uint32_t raw_bit_errors = 0;  ///< Before any retry.
  std::uint32_t retries = 0;         ///< Read-retry steps taken.
  bool corrected = false;        ///< ECC fixed a nonzero error count.
  bool uncorrectable = false;    ///< Still beyond ECC after max retries.
  bool silent_corruption = false;  ///< ECC miscorrected (CRC's job now).
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultProfile profile = FaultProfile());

  [[nodiscard]] const FaultProfile& profile() const noexcept {
    return profile_;
  }
  /// False = every query below is a near-free early return.
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  // --- NAND ------------------------------------------------------------
  /// Reliability outcome for the next read of `linear_page`. `page_bits`
  /// is the page size in bits; `pe_cycles` the block's program/erase
  /// count; `retention_ns` the virtual time since the page was programmed.
  /// Each call advances the page's read ordinal (read-disturb ordering).
  [[nodiscard]] PageReadFault on_page_read(std::uint64_t linear_page,
                                           std::uint64_t page_bits,
                                           std::uint64_t pe_cycles,
                                           std::uint64_t retention_ns);

  /// True when (lun, block) is a grown bad block. Stateless hash — the
  /// same (seed, lun, block) always answers the same, independent of
  /// query order.
  [[nodiscard]] bool is_bad_block(std::uint32_t lun,
                                  std::uint32_t block) const noexcept;

  // --- NVMe ------------------------------------------------------------
  /// Number of attempts of the next NVMe command that time out before one
  /// succeeds, capped at profile().nvme_max_retries (the cap models the
  /// controller-reset escalation; the command still completes).
  [[nodiscard]] std::uint32_t next_nvme_timeouts();

  // --- NDP --------------------------------------------------------------
  /// True when the next dispatch on PE shard `shard_id` hangs (no
  /// ready/valid progress until the watchdog fires). Every PE dispatch of
  /// the executor — scan, aggregate and GET — draws here. The stream is
  /// keyed by the stable shard id (not the platform PE index), so the
  /// outcome depends only on (seed, shard id, dispatch ordinal) — never on
  /// thread interleaving or on how shards map onto platform PEs. Draw
  /// serially, in block order, before fanning work out to threads.
  [[nodiscard]] bool next_shard_pe_hang(std::uint64_t shard_id);

  // --- Introspection (tests) --------------------------------------------
  [[nodiscard]] std::uint64_t page_reads_decided() const noexcept {
    return page_reads_decided_;
  }

  /// Pure ECC math shared with the unit tests: retry count needed to
  /// bring `raw_errors` within `ecc_bits` given the per-step attenuation,
  /// capped at `max_retries` (uncorrectable when the cap is hit and the
  /// residual still exceeds the threshold).
  [[nodiscard]] static std::uint32_t retries_needed(
      std::uint32_t raw_errors, std::uint32_t ecc_bits, double retry_factor,
      std::uint32_t max_retries, bool& uncorrectable) noexcept;

 private:
  /// Deterministic uniform draw in [0,1) for (stream, a, b).
  [[nodiscard]] double u01(std::uint64_t stream, std::uint64_t a,
                           std::uint64_t b) const noexcept;
  /// Deterministic Poisson sample with mean `lambda` from uniform `u`.
  [[nodiscard]] static std::uint32_t poisson(double lambda,
                                             double u) noexcept;

  FaultProfile profile_;
  bool enabled_ = false;

  /// Per-page read ordinals (read-disturb stream positions).
  std::unordered_map<std::uint64_t, std::uint32_t> page_read_seq_;
  /// Per-shard PE dispatch ordinals.
  std::unordered_map<std::uint64_t, std::uint64_t> shard_dispatch_seq_;
  std::uint64_t nvme_command_seq_ = 0;
  std::uint64_t page_reads_decided_ = 0;
};

}  // namespace ndpgen::fault
