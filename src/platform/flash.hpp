// NAND Flash model with Tiger4-style controllers.
//
// Topology follows the Cosmos+ OpenSSD configuration used in the paper:
// one Flash DIMM driven by two Tiger4 controllers (~100 MB/s each, i.e.
// ~200 MB/s aggregate); each controller owns several channels with
// multiple LUNs. Page reads overlap across LUNs (tR in parallel), while
// the per-controller bus serializes page transfers — which is what caps
// the aggregate bandwidth.
//
// nKV operates on *physical* addresses (native computational storage): the
// KV-store places SST blocks explicitly on channels/LUNs, so this model
// exposes physical page addressing directly.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "platform/event_queue.hpp"
#include "platform/timing.hpp"

namespace ndpgen::obs {
struct Observability;
}  // namespace ndpgen::obs

namespace ndpgen::fault {
class FaultInjector;
class CrashScheduler;
}  // namespace ndpgen::fault

namespace ndpgen::platform {

struct FlashTopology {
  std::uint32_t controllers = 2;
  std::uint32_t channels_per_controller = 4;
  std::uint32_t luns_per_channel = 4;
  std::uint32_t blocks_per_lun = 1024;
  std::uint32_t pages_per_block = 256;
  std::uint32_t page_bytes = 16 * 1024;

  [[nodiscard]] std::uint64_t total_pages() const noexcept {
    return std::uint64_t{controllers} * channels_per_controller *
           luns_per_channel * blocks_per_lun * pages_per_block;
  }
  [[nodiscard]] std::uint32_t total_luns() const noexcept {
    return controllers * channels_per_controller * luns_per_channel;
  }
  /// One NAND bus per channel, controller-major: bus = controller *
  /// channels_per_controller + channel. Matches FlashModel's internal
  /// bus accounting (bus_busy() ordering).
  [[nodiscard]] std::uint32_t bus_count() const noexcept {
    return controllers * channels_per_controller;
  }
  /// Channel-bus index serving a linear page number (the inverse of the
  /// LUN-major linearization, reduced to the channel dimension). Lets
  /// placement-aware callers reason about bus affinity without a model.
  [[nodiscard]] std::uint32_t bus_of_linear_page(
      std::uint64_t linear_page) const noexcept {
    return static_cast<std::uint32_t>((linear_page % total_luns()) /
                                      luns_per_channel);
  }
};

/// Physical page address.
struct FlashAddr {
  std::uint32_t controller = 0;
  std::uint32_t channel = 0;  ///< Within the controller.
  std::uint32_t lun = 0;      ///< Within the channel.
  std::uint32_t block = 0;
  std::uint32_t page = 0;

  [[nodiscard]] bool operator==(const FlashAddr&) const noexcept = default;
};

/// Reliability outcome of one timed page read (see fault/). All-false on
/// a fault-free platform; `uncorrectable` means the controller could not
/// deliver valid data and the caller must take a recovery path.
struct PageReadResult {
  FlashAddr addr;
  std::uint32_t retries = 0;       ///< ECC read-retry steps (extra tR each).
  bool corrected = false;          ///< ECC fixed raw bit errors.
  bool uncorrectable = false;      ///< Beyond ECC even after retries.
  bool silent_corruption = false;  ///< ECC miscorrected; data is suspect.

  [[nodiscard]] bool faulted() const noexcept {
    return retries > 0 || corrected || uncorrectable || silent_corruption;
  }
};

/// The flash device: page store + DES timing.
class FlashModel {
 public:
  FlashModel(EventQueue& queue, const TimingConfig& timing,
             FlashTopology topology = {});

  [[nodiscard]] const FlashTopology& topology() const noexcept {
    return topology_;
  }

  /// Linear page number <-> structured address. Linearization interleaves
  /// LUN-major so consecutive pages land on different LUNs/channels
  /// (the placement optimization of nKV, §III-B).
  [[nodiscard]] std::uint64_t linearize(const FlashAddr& addr) const;
  [[nodiscard]] FlashAddr delinearize(std::uint64_t page_no) const;

  // --- Content access (zero-time; used when building datasets) ---------
  void write_page_immediate(const FlashAddr& addr,
                            std::span<const std::uint8_t> data);
  [[nodiscard]] std::span<const std::uint8_t> page_data(
      const FlashAddr& addr) const;
  [[nodiscard]] bool page_written(const FlashAddr& addr) const noexcept;

  /// Erases every page of the block containing `addr` (addr.page is
  /// ignored). Content-immediate, like write_page_immediate; one crash
  /// step. An interrupted erase leaves the block *unstable*: its pages
  /// read as unwritten and the block must be re-erased before reuse.
  void erase_block_immediate(const FlashAddr& addr);

  /// Schedules only the TIMING of a block erase (tBERS on the LUN) — the
  /// content-side effect happens in erase_block_immediate, mirroring the
  /// write_page_immediate / charge_program split of the program path.
  void charge_erase(const FlashAddr& addr, std::function<void()> on_done);

  /// Drops a page's content (orphan garbage collection during recovery):
  /// the page reads as unwritten again. No crash step — this is host-side
  /// bookkeeping, not a NAND operation.
  void discard_page(std::uint64_t linear_page);

  /// Linear pages currently holding content, ascending (recovery uses
  /// this to find pages no committed manifest references).
  [[nodiscard]] std::vector<std::uint64_t> written_pages() const;

  // --- Timed operations (DES) -------------------------------------------
  /// Schedules a page read; `on_done` fires when the page data has been
  /// transferred into device DRAM by the controller DMA. Fault-oblivious
  /// convenience wrapper over read_page_checked (retry latency is still
  /// charged; outcome flags are dropped).
  void read_page(const FlashAddr& addr, std::function<void()> on_done);

  /// Schedules a page read and reports the reliability outcome: ECC
  /// corrections, read-retry steps (each charged extra tR on the LUN) and
  /// uncorrectable status. Callers on robust paths use this variant and
  /// route uncorrectable pages into recovery instead of trusting the data.
  void read_page_checked(const FlashAddr& addr,
                         std::function<void(const PageReadResult&)> on_done);

  /// Schedules a page program.
  void program_page(const FlashAddr& addr, std::span<const std::uint8_t> data,
                    std::function<void()> on_done);

  /// Schedules only the TIMING of a page program (content untouched) —
  /// used to charge the write path for pages already materialized (flush/
  /// compaction latency accounting).
  void charge_program(const FlashAddr& addr, std::function<void()> on_done);

  /// Transfer time of one page over a channel bus.
  [[nodiscard]] SimTime page_transfer_time() const noexcept;

  /// The event queue this device schedules on.
  [[nodiscard]] EventQueue& queue() noexcept { return queue_; }

  /// Virtual time at which a read issued *now* on `addr` would complete,
  /// without scheduling it (planning helper for executors).
  [[nodiscard]] SimTime estimate_read_completion(const FlashAddr& addr) const;

  // --- Statistics ---------------------------------------------------------
  [[nodiscard]] std::uint64_t pages_read() const noexcept {
    return pages_read_;
  }
  [[nodiscard]] std::uint64_t pages_programmed() const noexcept {
    return pages_programmed_;
  }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return pages_read_ * topology_.page_bytes;
  }
  /// Total nanoseconds any channel bus spent transferring pages (sum over
  /// buses; divide by bus count x elapsed time for utilization).
  [[nodiscard]] SimTime bus_busy_ns() const noexcept;
  /// Busy nanoseconds of one channel bus (see bus_index ordering).
  [[nodiscard]] const std::vector<SimTime>& bus_busy() const noexcept {
    return bus_busy_ns_;
  }
  void reset_stats() noexcept;

  // --- Reliability (see fault/) -----------------------------------------
  /// Attaches the deterministic fault injector (null = fault-free).
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    fault_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return fault_;
  }
  /// Program/erase wear proxy of the block containing `addr` (page
  /// programs / pages_per_block).
  [[nodiscard]] std::uint64_t block_pe_cycles(const FlashAddr& addr) const;
  /// Consumes a pending silent-corruption mark on `linear_page` (set by a
  /// faulted timed read). The content path uses this to decide whether the
  /// bytes it assembles must be corrupted before checksum verification.
  [[nodiscard]] bool consume_silent_corruption(std::uint64_t linear_page);

  // --- Crash consistency (see fault/crash_scheduler.hpp) ----------------
  /// Attaches the power-loss scheduler (null = never crashes). Every page
  /// program and block erase is one crash step; the step at
  /// CrashPlan::crash_at_step is interrupted and later ones are dropped.
  void set_crash_scheduler(fault::CrashScheduler* scheduler) noexcept {
    crash_ = scheduler;
  }
  [[nodiscard]] fault::CrashScheduler* crash_scheduler() const noexcept {
    return crash_;
  }
  /// Global block id (LUN-major) of the block containing `addr`; the key
  /// space of unstable_blocks().
  [[nodiscard]] std::uint64_t global_block(const FlashAddr& addr) const {
    return lun_index(addr) * topology_.blocks_per_lun + addr.block;
  }
  /// True when the page's last program was interrupted (its tail is
  /// deterministic garbage; any CRC over the page fails).
  [[nodiscard]] bool page_torn(std::uint64_t linear_page) const noexcept {
    return torn_pages_.contains(linear_page);
  }
  /// Blocks whose erase was interrupted, ascending global block ids.
  /// Recovery must re-erase them before the allocator may reuse them.
  [[nodiscard]] std::vector<std::uint64_t> unstable_blocks() const;

  [[nodiscard]] std::uint64_t torn_programs() const noexcept {
    return torn_programs_;
  }
  [[nodiscard]] std::uint64_t interrupted_erases() const noexcept {
    return interrupted_erases_;
  }
  [[nodiscard]] std::uint64_t dropped_writes() const noexcept {
    return dropped_writes_;
  }

  [[nodiscard]] std::uint64_t ecc_corrected_reads() const noexcept {
    return ecc_corrected_reads_;
  }
  [[nodiscard]] std::uint64_t ecc_retry_steps() const noexcept {
    return ecc_retry_steps_;
  }
  [[nodiscard]] std::uint64_t raw_bit_errors() const noexcept {
    return raw_bit_errors_;
  }
  [[nodiscard]] std::uint64_t uncorrectable_reads() const noexcept {
    return uncorrectable_reads_;
  }
  [[nodiscard]] std::uint64_t silent_corruptions() const noexcept {
    return silent_corruptions_;
  }

  /// Observability context shared with the owning platform (null = off).
  /// The flash model doubles as the carrier for the kv layer: compaction
  /// and SST readers already hold a FlashModel reference.
  void set_observability(obs::Observability* obs) noexcept { obs_ = obs; }
  [[nodiscard]] obs::Observability* observability() const noexcept {
    return obs_;
  }

 private:
  [[nodiscard]] std::size_t lun_index(const FlashAddr& addr) const;
  [[nodiscard]] std::size_t bus_index(const FlashAddr& addr) const;
  void check_addr(const FlashAddr& addr) const;

  EventQueue& queue_;
  const TimingConfig& timing_;
  FlashTopology topology_;

  /// One page buffer, page_bytes long. Every byte at and past `dirty` is
  /// zero, so a program zeroes only what earlier programs wrote past its
  /// own data.
  struct PageBuffer {
    std::unique_ptr<std::uint8_t[]> bytes;
    std::size_t dirty = 0;
  };
  /// Moves page `linear`'s buffer, if it has one, to free_pages_.
  void release_page(std::uint64_t linear);

  /// Sparse page store: only written pages are materialized.
  std::unordered_map<std::uint64_t, PageBuffer> pages_;
  /// Buffers of erased and discarded pages, reused by later programs (a
  /// WAL page per sync, compaction outputs), so a program neither
  /// allocates nor faults in a fresh page. Live plus free buffers never
  /// exceed the most pages ever live at once.
  std::vector<PageBuffer> free_pages_;

  /// Next free time per LUN (die busy through data-out) and per channel
  /// bus (each Tiger4 drives its channels through independent NAND buses;
  /// the per-controller throughput cap is split across them).
  std::vector<SimTime> lun_free_;
  std::vector<SimTime> bus_free_;
  std::vector<SimTime> bus_busy_ns_;  ///< Accumulated transfer time per bus.

  std::uint64_t pages_read_ = 0;
  std::uint64_t pages_programmed_ = 0;
  obs::Observability* obs_ = nullptr;  ///< Non-owning.

  // --- Crash-consistency state -------------------------------------------
  fault::CrashScheduler* crash_ = nullptr;  ///< Non-owning; null = no crash.
  /// Pages whose last program was interrupted (tail = garbage).
  std::unordered_set<std::uint64_t> torn_pages_;
  /// Global block ids whose erase was interrupted.
  std::unordered_set<std::uint64_t> unstable_blocks_;
  std::uint64_t torn_programs_ = 0;
  std::uint64_t interrupted_erases_ = 0;
  std::uint64_t dropped_writes_ = 0;

  // --- Reliability state -------------------------------------------------
  fault::FaultInjector* fault_ = nullptr;  ///< Non-owning; null = no faults.
  /// Page programs per block (linear block id), the wear input of the
  /// reliability model.
  std::unordered_map<std::uint64_t, std::uint64_t> block_programs_;
  /// Last program time per linear page (retention input). Only populated
  /// when a fault injector is attached.
  std::unordered_map<std::uint64_t, SimTime> page_program_time_;
  /// Pages whose last timed read miscorrected (consumed by the content
  /// path so the block checksum can catch the corruption).
  std::unordered_set<std::uint64_t> silently_corrupted_;
  std::uint64_t ecc_corrected_reads_ = 0;
  std::uint64_t ecc_retry_steps_ = 0;
  std::uint64_t raw_bit_errors_ = 0;
  std::uint64_t uncorrectable_reads_ = 0;
  std::uint64_t silent_corruptions_ = 0;
};

}  // namespace ndpgen::platform
