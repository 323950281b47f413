#include "platform/cosmos.hpp"

namespace ndpgen::platform {

namespace hw = ndpgen::hwgen;

CosmosPlatform::CosmosPlatform(CosmosConfig config)
    : config_(config),
      fault_(config_.fault),
      crash_(config_.crash),
      flash_(queue_, config_.timing, config_.flash),
      arm_(queue_, config_.timing),
      nvme_(queue_, config_.timing) {
  // One observability context for the whole device: the DES models
  // publish into it (kv/ndp reach it through flash()).
  flash_.set_observability(&obs_);
  nvme_.set_observability(&obs_);
  // One fault injector for the whole device; the kv/ndp layers reach it
  // through flash().fault_injector(). Armed only by a nonzero profile.
  if (fault_.enabled()) {
    flash_.set_fault_injector(&fault_);
    nvme_.set_fault_injector(&fault_);
  }
  // Power-loss injection: armed only by a nonzero crash step, so default
  // platforms never pay the per-program branch.
  if (config_.crash.crash_at_step != 0) {
    flash_.set_crash_scheduler(&crash_);
  }
}

void CosmosPlatform::publish_metrics() {
  obs::MetricsRegistry& m = obs_.metrics;
  m.raise(m.gauge("platform.event_queue.max_pending"), queue_.max_pending());
  m.raise(m.gauge("platform.events.dispatched"), queue_.dispatched());
  m.raise(m.gauge("platform.sim_time_ns"), queue_.now());
  m.raise(m.gauge("platform.flash.pages_read"), flash_.pages_read());
  m.raise(m.gauge("platform.flash.pages_programmed"),
          flash_.pages_programmed());
  m.raise(m.gauge("platform.flash.bus_busy_ns"), flash_.bus_busy_ns());
  // Aggregate channel-bus utilization in permille (integer for byte-exact
  // dumps): busy-ns summed over buses / (bus count x elapsed virtual time).
  const std::uint64_t elapsed = queue_.now();
  const std::uint64_t buses = std::uint64_t{config_.flash.controllers} *
                              config_.flash.channels_per_controller;
  if (elapsed > 0 && buses > 0) {
    m.raise(m.gauge("platform.flash.bus_utilization_permille"),
            flash_.bus_busy_ns() * 1000 / (buses * elapsed));
  }
  // Per-channel-bus busy time: the quantity multi-PE sharding contends on.
  const std::vector<SimTime>& per_bus = flash_.bus_busy();
  for (std::size_t b = 0; b < per_bus.size(); ++b) {
    m.raise(m.gauge("platform.flash.bus." + std::to_string(b) + ".busy_ns"),
            per_bus[b]);
  }
  m.raise(m.gauge("platform.nvme.bytes_to_host"), nvme_.bytes_to_host());
  m.raise(m.gauge("platform.nvme.commands"), nvme_.commands());
  // Fraction of simulated PE-kernel cycles that did no useful work, in
  // permille: every stalled/idle cycle is one the exact tick loop spends
  // without moving data. Counters exist only once a PE chunk ran, so
  // scans that never touch hardware keep their metrics dump
  // byte-identical to earlier builds.
  // (Merged-in shard registries drop never-moved counters, so each class
  // must be read defensively.)
  const auto counter_or_zero = [&m](std::string_view name) -> std::uint64_t {
    return m.contains(name) ? m.counter_value(name) : 0;
  };
  const std::uint64_t useful = counter_or_zero("hwsim.cycles_useful");
  const std::uint64_t stalled = counter_or_zero("hwsim.cycles_stalled");
  const std::uint64_t idle = counter_or_zero("hwsim.cycles_idle");
  const std::uint64_t total_classified = useful + stalled + idle;
  if (total_classified > 0) {
    m.raise(m.gauge("hwsim.idle_cycle_fraction"),
            (stalled + idle) * 1000 / total_classified);
  }
  // Reliability gauges only exist under a fault profile, so the default
  // (fault-free) metrics dump stays byte-identical to earlier builds.
  if (fault_.enabled()) {
    m.raise(m.gauge("platform.fault.raw_bit_errors"),
            flash_.raw_bit_errors());
    m.raise(m.gauge("platform.fault.ecc_corrected_reads"),
            flash_.ecc_corrected_reads());
    m.raise(m.gauge("platform.fault.ecc_retry_steps"),
            flash_.ecc_retry_steps());
    m.raise(m.gauge("platform.fault.uncorrectable_reads"),
            flash_.uncorrectable_reads());
    m.raise(m.gauge("platform.fault.silent_corruptions"),
            flash_.silent_corruptions());
    m.raise(m.gauge("platform.fault.nvme_timeouts"), nvme_.timeouts());
    m.raise(m.gauge("platform.fault.nvme_resets"), nvme_.resets());
    m.raise(m.gauge("platform.fault.nvme_backoff_ns"), nvme_.backoff_ns());
  }
  // Crash gauges only exist once a crash scheduler was attached, for the
  // same dump-compatibility reason as the fault gauges above.
  if (flash_.crash_scheduler() != nullptr) {
    m.raise(m.gauge("platform.crash.write_steps"), crash_.steps_observed());
    m.raise(m.gauge("platform.crash.crashed_step"), crash_.crashed_step());
    m.raise(m.gauge("platform.crash.torn_programs"), flash_.torn_programs());
    m.raise(m.gauge("platform.crash.interrupted_erases"),
            flash_.interrupted_erases());
    m.raise(m.gauge("platform.crash.dropped_writes"),
            flash_.dropped_writes());
  }
}

std::size_t CosmosPlatform::attach_pe(const hw::PEDesign& design) {
  design.validate();
  pe_designs_.push_back(design);
  return pe_designs_.size() - 1;
}

}  // namespace ndpgen::platform
