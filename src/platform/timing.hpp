// Calibrated timing constants of the Cosmos+ OpenSSD platform model.
//
// Every figure-level performance result flows through these constants.
// Calibration anchors (paper §V):
//  * aggregate Flash bandwidth with two Tiger4 controllers ~ 200 MB/s,
//    making the hardware SCAN flash-bound at ~5.5 s for the ~1.1 GB
//    publication-graph dataset;
//  * PEs (hwgen::kPeClockMhz) and flash controllers clock at 100 MHz,
//    NVMe core at 250 MHz;
//  * GET is dominated by per-block firmware/configuration overhead, so
//    hardware offload does not pay off (Fig. 7a);
//  * the updated Cosmos+ firmware trades ~10 % performance for
//    reliability on command-level operations (§V, GET discussion).
#pragma once

#include <cstdint>

#include "hwgen/pe_platform.hpp"
#include "platform/event_queue.hpp"

namespace ndpgen::platform {

struct TimingConfig {
  // --- Flash (per Tiger4 controller) -----------------------------------
  SimTime flash_read_page_latency = 65 * kNsPerUs;   ///< tR (MLC read).
  SimTime flash_program_page_latency = 600 * kNsPerUs;  ///< tPROG.
  SimTime flash_erase_block_latency = 3 * kNsPerMs;  ///< tBERS.
  /// Controller bus throughput; 16 KiB page / 100 MB/s = ~164 us/page,
  /// i.e. ~200 MB/s aggregate with two controllers.
  double flash_controller_mbps = 100.0;
  /// Extra sense time per ECC read-retry step (shifted read voltages);
  /// charged on the LUN for every retry the reliability model takes.
  SimTime flash_read_retry_latency = 40 * kNsPerUs;
  /// Firmware recovery pass for an uncorrectable page (soft-decision
  /// decode + parity rebuild), charged per affected data block before the
  /// software path reprocesses it.
  SimTime flash_recovery_latency = 400 * kNsPerUs;

  // --- DRAM (PS DDR) -----------------------------------------------------
  /// One firmware access to DRAM-resident metadata (Bloom-filter words,
  /// record keys during an in-block search). Bulk block traffic is not
  /// charged here: PEs read it through each shard bench's AXI model.
  SimTime dram_latency = 50;  ///< ns, single access.

  // --- ARM core (software NDP cost model) ------------------------------
  /// Sustained software scan/parse rate of one Cortex-A9 core over SST
  /// blocks (format parsing + predicate evaluation), bytes per second.
  double arm_parse_mbps = 120.0;
  /// Extra per-tuple cost per additional predicate stage in software.
  SimTime arm_predicate_per_tuple = 14;  ///< ns/tuple/stage.
  /// Per-block fixed software dispatch cost (loop + bookkeeping).
  SimTime arm_block_dispatch = 3 * kNsPerUs;
  /// Binary search step in an index block.
  SimTime arm_index_probe_step = 180;  ///< ns per comparison.

  // --- HW/SW interface --------------------------------------------------
  /// One control-register write/read from the ARM core via AXI4-Lite.
  SimTime register_access = 150;  ///< ns.
  /// Interrupt/firmware path cost to launch one PE run over a data block
  /// (the "configuration-overhead ... too high" of Fig. 7a's GET).
  SimTime pe_dispatch_overhead = 11 * kNsPerUs;
  /// Device firmware handling of one NDP command (parse, session setup,
  /// completion). Charged once per GET but once per whole SCAN, which is
  /// why firmware changes show on GET yet are "negligible" on the long
  /// SCAN runtimes (paper §V).
  SimTime ndp_command_firmware = 120 * kNsPerUs;

  // --- NVMe host link ----------------------------------------------------
  SimTime nvme_command_latency = 18 * kNsPerUs;  ///< Submission->device.
  double nvme_payload_mbps = 1400.0;             ///< PCIe Gen2 x4 effective.
  /// Detection time for a lost/timed-out command (driver-level timer; kept
  /// short relative to real NVMe timeouts so degraded runs stay tractable).
  SimTime nvme_timeout = 2 * kNsPerMs;
  /// First retry backoff; doubles per attempt (exponential backoff).
  SimTime nvme_retry_backoff = 100 * kNsPerUs;
  /// Controller reset + requeue when bounded retries are exhausted.
  SimTime nvme_reset_recovery = 10 * kNsPerMs;

  // --- Fault detection ---------------------------------------------------
  /// Ready/valid watchdog horizon: a PE kernel that makes no stream
  /// progress for this many cycles is declared hung (hwsim::SimKernel and
  /// the executor's PE dispatch fault path).
  std::uint64_t pe_watchdog_cycles = 100'000;

  // --- Classical (non-NDP) host path --------------------------------------
  /// Host CPU streaming parse/filter rate (a server core is faster than
  /// the device ARM, but all data must cross the I/O bottleneck first).
  double host_parse_mbps = 600.0;
  /// Per-32KB-block cost of the intermediate layers nKV removes (block
  /// device, file system, page cache copies, storage-engine read path —
  /// paper §III-B / Fig. 1). Calibrated so the classical SCAN lands in
  /// the 2-3x-slower-than-NDP regime [1] reports.
  SimTime host_io_stack_per_block = 280 * kNsPerUs;

  // --- Firmware ---------------------------------------------------------
  /// "updated firmware for the COSMOS+ board ... traded some performance
  /// for higher reliability" — multiplies command-level firmware costs.
  double firmware_overhead_factor = 1.10;

  // Derived helpers ------------------------------------------------------
  [[nodiscard]] SimTime pe_cycles_to_ns(std::uint64_t cycles) const noexcept {
    return cycles * 1000ull / hwgen::kPeClockMhz;
  }
  [[nodiscard]] SimTime arm_parse_time(std::uint64_t bytes) const noexcept {
    return static_cast<SimTime>(static_cast<double>(bytes) * 1000.0 /
                                arm_parse_mbps);
  }
  [[nodiscard]] SimTime nvme_transfer_time(std::uint64_t bytes) const noexcept {
    return nvme_command_latency +
           static_cast<SimTime>(static_cast<double>(bytes) * 1000.0 /
                                nvme_payload_mbps);
  }
  [[nodiscard]] SimTime host_parse_time(std::uint64_t bytes) const noexcept {
    return static_cast<SimTime>(static_cast<double>(bytes) * 1000.0 /
                                host_parse_mbps);
  }
  [[nodiscard]] SimTime firmware(SimTime cost) const noexcept {
    return static_cast<SimTime>(static_cast<double>(cost) *
                                firmware_overhead_factor);
  }
};

}  // namespace ndpgen::platform
