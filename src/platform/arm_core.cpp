#include "platform/arm_core.hpp"

#include <cmath>

namespace ndpgen::platform {

SimTime ArmCoreModel::charge(SimTime cost) {
  // The core is busy for `cost`; device-side events (flash completions,
  // NVMe transfers) continue to fire while it computes.
  queue_.run_until(queue_.now() + cost);
  busy_time_ += cost;
  return cost;
}

SimTime ArmCoreModel::index_probe(std::uint64_t entries) {
  const std::uint64_t steps =
      entries <= 1 ? 1
                   : static_cast<std::uint64_t>(std::ceil(std::log2(
                         static_cast<double>(entries)))) + 1;
  return charge(timing_.firmware(steps * timing_.arm_index_probe_step));
}

SimTime ArmCoreModel::bloom_probe() {
  // 6 hashed bit tests against DRAM-resident filter words.
  return charge(6 * timing_.dram_latency);
}

SimTime ArmCoreModel::ndp_command() {
  return charge(timing_.firmware(timing_.ndp_command_firmware));
}

SimTime ArmCoreModel::block_binary_search(std::uint64_t records,
                                          std::uint64_t record_bytes) {
  const std::uint64_t steps =
      records <= 1 ? 1
                   : static_cast<std::uint64_t>(std::ceil(std::log2(
                         static_cast<double>(records)))) + 1;
  // Each probe touches one record key in DRAM; the hit is copied out.
  const SimTime probes = steps * (timing_.arm_index_probe_step +
                                  timing_.dram_latency);
  return charge(timing_.firmware(probes) +
                timing_.arm_parse_time(record_bytes));
}

}  // namespace ndpgen::platform
