// ARM Cortex-A9 firmware cost model.
//
// The Zynq PS cores execute the device firmware and the software variants
// of the NDP operations. This model charges virtual time for the firmware
// steps the executors run on the DES clock: NDP command handling, index
// and Bloom-filter probes, and the in-block search of a software GET. The
// per-block costs that the executors compose into pipelines themselves
// are pure functions: ndp::SoftwareNdp::block_cost (software filter) and
// ndp::hw_dispatch_overhead (PE dispatch over the HW/SW interface).
#pragma once

#include <cstdint>

#include "platform/event_queue.hpp"
#include "platform/timing.hpp"

namespace ndpgen::platform {

class ArmCoreModel {
 public:
  ArmCoreModel(EventQueue& queue, const TimingConfig& timing)
      : queue_(queue), timing_(timing) {}

  /// Binary search over an index block with `entries` entries.
  SimTime index_probe(std::uint64_t entries);

  /// Bloom-filter membership probe (k bit tests in device DRAM).
  SimTime bloom_probe();

  /// Firmware handling of one NDP command (GET or SCAN session).
  SimTime ndp_command();

  /// In-block binary search over `records` fixed-size records plus the
  /// copy-out of one record of `record_bytes` (the software GET path).
  SimTime block_binary_search(std::uint64_t records,
                              std::uint64_t record_bytes);

  [[nodiscard]] SimTime busy_time() const noexcept { return busy_time_; }
  void reset_stats() noexcept { busy_time_ = 0; }

 private:
  SimTime charge(SimTime cost);

  EventQueue& queue_;
  const TimingConfig& timing_;
  SimTime busy_time_ = 0;
};

}  // namespace ndpgen::platform
