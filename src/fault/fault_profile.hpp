// FaultProfile: declarative description of the fault environment.
//
// The simulated Cosmos+ platform is fault-free by default; a FaultProfile
// turns on individual fault classes with explicit rates, all driven by one
// seed so every run is exactly reproducible (same contract as
// support/rng.hpp). Profiles are parsed from "key=value,key=value" strings
// so the CLI (`--fault-profile`) and the benches (NDPGEN_FAULT_PROFILE)
// share one syntax.
//
// Fault classes and the layer that injects them:
//  * NAND raw bit errors  — FlashModel timed reads (ECC + read-retry).
//  * grown bad blocks     — PlacementPolicy allocation (remapped around).
//  * silent corruption    — ECC-missed bytes; caught by the SST block
//                           CRC32C and routed into the degraded-read path.
//  * NVMe command timeout — NvmeLink (bounded retry, exponential backoff).
//  * PE hang              — executor PE dispatch (watchdog detection,
//                           block degraded to the software NDP path).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace ndpgen::fault {

/// Whole-device fault classes injected by the cluster frontend's
/// DeviceFaultInjector (src/fault/device_fault.hpp). A single-device
/// stack ignores these fields — they describe what happens to one member
/// of a cluster, not to the media inside it.
enum class DeviceFaultKind : std::uint8_t {
  kNone,      ///< No device-level fault scheduled.
  kCrash,     ///< Device dies permanently at the trigger point.
  kBrownout,  ///< Device latency is multiplied by brownout_factor for
              ///< device_fault_duration.
  kLinkFlap,  ///< NVMe link drops for device_fault_duration, then returns.
};

[[nodiscard]] constexpr std::string_view to_string(
    DeviceFaultKind kind) noexcept {
  switch (kind) {
    case DeviceFaultKind::kNone: return "none";
    case DeviceFaultKind::kCrash: return "crash";
    case DeviceFaultKind::kBrownout: return "brownout";
    case DeviceFaultKind::kLinkFlap: return "flap";
  }
  return "?";
}

struct FaultProfile {
  std::uint64_t seed = 0x5eedfa17ULL;

  // --- NAND reliability --------------------------------------------------
  /// Raw bit-error probability per stored bit per read (fresh media).
  double read_ber = 0.0;
  /// BER multiplier per program/erase cycle of the block (wear-out).
  double wear_alpha = 0.0;
  /// BER multiplier per second of retention (time since program).
  double retention_alpha = 0.0;
  /// ECC correction strength: raw bit errors per page the engine corrects.
  std::uint32_t ecc_correctable_bits = 40;
  /// Each read-retry step (shifted read voltages) keeps this fraction of
  /// the raw errors; a step costs TimingConfig::flash_read_retry_latency.
  double retry_error_factor = 0.5;
  /// Read-retry steps before the page is declared uncorrectable.
  std::uint32_t max_read_retries = 5;
  /// Probability that a grown bad block occupies a (LUN, block) slot.
  double bad_block_rate = 0.0;
  /// Probability per page read that ECC miscorrects: the read "succeeds"
  /// but delivers corrupt bytes. Caught by the SST block checksum.
  double silent_corruption_rate = 0.0;

  // --- NVMe / platform ---------------------------------------------------
  /// Probability that one NVMe command attempt times out.
  double nvme_timeout_rate = 0.0;
  /// Retry attempts before the controller escalates to a reset.
  std::uint32_t nvme_max_retries = 3;

  // --- NDP ---------------------------------------------------------------
  /// Probability that a PE dispatch hangs (no ready/valid progress); the
  /// firmware watchdog detects it and the executor degrades the block to
  /// the software path.
  double pe_fault_rate = 0.0;

  // --- Device-level (cluster) --------------------------------------------
  /// Scheduled whole-device fault; consumed by the cluster frontend's
  /// DeviceFaultInjector, ignored by a single-device stack.
  DeviceFaultKind device_fault = DeviceFaultKind::kNone;
  /// Device index the fault targets.
  std::uint32_t device_fault_device = 0;
  /// Trigger point as a fraction of the run's request budget (the K-th
  /// doorbell, K = round(frac * requests)); used when device_fault_at_ns
  /// is 0. The device-loss preset sets 0.5 ("mid-run").
  double device_fault_at_frac = 0.5;
  /// Absolute virtual trigger time in ns; 0 = use device_fault_at_frac.
  std::uint64_t device_fault_at_ns = 0;
  /// Brownout / link-flap window length in ns.
  std::uint64_t device_fault_duration_ns = 5'000'000;  // 5 ms virtual.
  /// Brownout latency multiplier (kBrownout only).
  double brownout_factor = 4.0;

  // --- Latent bit-rot (cluster replica integrity) ------------------------
  /// SST data blocks whose flash content rots on one member once the
  /// trigger fires (0 = disabled). Unlike silent_rate — a per-read ECC
  /// miscorrection that clears on the recovery re-read — bit-rot damages
  /// the stored bytes, so only a repair write restores the replica.
  std::uint32_t device_bitrot_blocks = 0;
  /// Device index the rot lands on.
  std::uint32_t device_bitrot_device = 0;
  /// Trigger as a fraction of the run's request budget (K-th doorbell),
  /// used when device_bitrot_at_ns is 0. Independent of the whole-device
  /// fault trigger, so a profile can schedule both.
  double device_bitrot_at_frac = 0.25;
  /// Absolute virtual trigger time in ns; 0 = use device_bitrot_at_frac.
  std::uint64_t device_bitrot_at_ns = 0;
  /// Wrong-data variant: the corruption also rewrites the block's index
  /// CRC32C to match the rotten bytes, so per-block checksums (scrubber,
  /// checked reads) pass and only cross-replica digests catch it.
  bool device_bitrot_wrong_data = false;

  [[nodiscard]] bool device_fault_enabled() const noexcept {
    return device_fault != DeviceFaultKind::kNone;
  }

  [[nodiscard]] bool device_bitrot_enabled() const noexcept {
    return device_bitrot_blocks > 0;
  }

  /// True when any media/link fault class can fire; false keeps every hook
  /// on its zero-cost default path. Device-level faults are deliberately
  /// excluded: they live in the cluster frontend, not the per-device
  /// stack, so a device-loss profile keeps each member platform on the
  /// fault-free fast path.
  [[nodiscard]] bool any_enabled() const noexcept {
    return read_ber > 0.0 || bad_block_rate > 0.0 ||
           silent_corruption_rate > 0.0 || nvme_timeout_rate > 0.0 ||
           pe_fault_rate > 0.0;
  }

  /// Parses "seed=7,read_ber=1e-6,bad_block_rate=0.01" (any subset of the
  /// documented keys, in any order). A bare token without '=' names a
  /// preset ("none", "aged", "degraded", "stress", "device-loss") whose
  /// values later key=value items override, so "aged,seed=7" is a seeded
  /// aged device and "device-loss,device_fault_device=2" crashes device 2.
  /// Unknown keys, unknown preset names and malformed numbers fail with
  /// kInvalidArg; the preset error lists the valid names.
  [[nodiscard]] static Result<FaultProfile> parse(std::string_view text);

  /// Comma-separated list of the preset names parse() accepts.
  [[nodiscard]] static std::string preset_names();

  /// One-line human summary ("faults: read_ber=1e-06 ..." or
  /// "faults: none").
  [[nodiscard]] std::string summary() const;
};

}  // namespace ndpgen::fault
