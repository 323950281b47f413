// Cosmos+ OpenSSD platform composition (Fig. 2).
//
// The device's discrete-event model — event queue, flash, ARM firmware
// cost model, NVMe link, fault injector, crash scheduler and
// observability — plus the list of PE designs attached to it. The PEs
// themselves run in the executor's shards (ndp::PeShard): each shard's
// bench owns the PS-DRAM staging memory, AXI interconnect and cycle
// kernel its PE reads blocks through, and the executor charges the
// resulting cycle counts to virtual time at the 100 MHz PE clock. What
// the shards share on the device is the flash bus modelled here.
#pragma once

#include <cstdint>
#include <deque>

#include "fault/crash_scheduler.hpp"
#include "fault/fault_injector.hpp"
#include "hwgen/pe_design.hpp"
#include "hwsim/kernel.hpp"
#include "hwsim/memport.hpp"
#include "obs/obs.hpp"
#include "platform/arm_core.hpp"
#include "platform/event_queue.hpp"
#include "platform/flash.hpp"
#include "platform/nvme.hpp"
#include "platform/timing.hpp"

namespace ndpgen::platform {

struct CosmosConfig {
  TimingConfig timing{};
  FlashTopology flash{};
  /// AXI fabric of each PE shard's bench (the executor reads it).
  hwsim::AxiInterconnect::Config axi{};
  /// Unread: the platform runs no PE kernel; PE-kernel fidelity is
  /// ndp::ExecutorConfig::sim_mode. Kept because ndpbench, which changes
  /// only together with the benchmark definition, still assigns it.
  hwsim::SimMode sim_mode = hwsim::sim_mode_from_env();
  /// Reliability model. The default (all rates zero) disables every fault
  /// path and keeps runs byte-identical to a fault-free build.
  fault::FaultProfile fault{};
  /// Power-loss model. The default (crash_at_step = 0) keeps the crash
  /// scheduler detached so the write path is exactly as fast/deterministic
  /// as before.
  fault::CrashPlan crash{};
};

class CosmosPlatform {
 public:
  explicit CosmosPlatform(CosmosConfig config = CosmosConfig());

  [[nodiscard]] EventQueue& events() noexcept { return queue_; }
  [[nodiscard]] const CosmosConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const TimingConfig& timing() const noexcept {
    return config_.timing;
  }
  [[nodiscard]] FlashModel& flash() noexcept { return flash_; }
  [[nodiscard]] ArmCoreModel& arm() noexcept { return arm_; }
  [[nodiscard]] NvmeLink& nvme() noexcept { return nvme_; }

  /// Observability context shared by every device model; the executor
  /// merges its shards' PE metrics and traces into it. Attach a TraceSink
  /// via `observability().trace = &sink`.
  [[nodiscard]] obs::Observability& observability() noexcept { return obs_; }

  /// The platform-owned deterministic fault injector (enabled() is false
  /// under the default profile). kv/ndp layers share this instance so all
  /// fault streams draw from one seed.
  [[nodiscard]] fault::FaultInjector& fault_injector() noexcept {
    return fault_;
  }

  /// The platform-owned power-loss scheduler; attached to the flash model
  /// only when CosmosConfig::crash names a crash step. "Power restored"
  /// (before recovery) is flash().set_crash_scheduler(nullptr).
  [[nodiscard]] fault::CrashScheduler& crash_scheduler() noexcept {
    return crash_;
  }

  /// Publishes platform-level gauges (event-queue depth high-water, flash
  /// page counts, channel-bus utilization) into the metrics registry.
  /// Call once at the end of a run, before dumping metrics.
  void publish_metrics();

  /// Attaches a PE of `design` (rejected with kGeneration unless it
  /// validates); returns its index. Attaching adds no metric and takes no
  /// virtual time.
  std::size_t attach_pe(const hwgen::PEDesign& design);

  [[nodiscard]] std::size_t pe_count() const noexcept {
    return pe_designs_.size();
  }
  /// The design attached at `index`; the reference stays valid while more
  /// PEs attach.
  [[nodiscard]] const hwgen::PEDesign& pe_design(std::size_t index) const {
    return pe_designs_.at(index);
  }

 private:
  CosmosConfig config_;
  obs::Observability obs_;
  fault::FaultInjector fault_;
  fault::CrashScheduler crash_;
  EventQueue queue_;
  FlashModel flash_;
  ArmCoreModel arm_;
  NvmeLink nvme_;
  std::deque<hwgen::PEDesign> pe_designs_;
};

}  // namespace ndpgen::platform
