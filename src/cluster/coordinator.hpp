// Cluster frontend: N smart SSDs behind one host OffloadTarget.
//
// The coordinator implements host::OffloadTarget, so the unchanged
// QueryService (queue pairs, WRR, coalescing, retry/backoff, phase
// accounting) drives a replicated cluster exactly the way it drives one
// device. Each multi_range_scan offload is scattered: every hash
// partition is served by exactly one currently-eligible replica (rotated
// per query for read spreading), each chosen device runs the ranges on
// its own stack, the device results are filtered to the partitions that
// device was assigned (replicas hold the same rows — without the filter
// every row would appear R times) and k-way merged back into global key
// order — byte-equal to a single device holding the whole dataset.
//
// Robustness machinery, all on virtual time and byte-deterministic:
//  * device faults — a DeviceFaultInjector oracle (crash / brownout /
//    link flap scheduled by doorbell count or absolute time);
//  * failure handling — a sub-scan on an unreachable device fails after
//    the NVMe timeout; its partitions are reassigned to surviving
//    replicas and retried, recursively, until served or no replica is
//    left (typed kDeviceUnavailable, exit code 19);
//  * health — heartbeat probes + per-device error EWMAs drive
//    Alive/Suspect/Dead; Suspect devices are routed around, Dead ones
//    trigger failover;
//  * hedged reads — a sub-scan exceeding a p99-derived deadline is
//    re-issued to second replicas; the query takes the faster path;
//  * rebuild — a Dead member's partitions are re-replicated onto a spare
//    (RebuildManager arbitrates copy vs foreground bandwidth); the spare
//    inherits the dead device's ring positions and serves once caught up.
//
// The scatter-gather works in per-device *elapsed* times (each member
// owns its DES), composes the query's critical path arithmetically, and
// reserves the frontend NVMe link for the merged result — so the cluster
// ScanStats keeps the executor invariant: phases (excluding queueing)
// sum exactly to elapsed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/device.hpp"
#include "cluster/health.hpp"
#include "cluster/placement.hpp"
#include "cluster/rebuild.hpp"
#include "cluster/scrub.hpp"
#include "fault/device_fault.hpp"
#include "host/offload_target.hpp"

namespace ndpgen::cluster {

struct CoordinatorConfig {
  PlacementConfig placement;
  /// Device-level fault schedule (kind/target/trigger; none by default).
  fault::FaultProfile device_fault;
  /// Extracts the key from an output-layout record: partitions device
  /// results and orders the global merge. Required.
  kv::KeyExtractor result_key = nullptr;
  /// Background CRC scrubbing (off by default; see cluster/scrub.hpp).
  ScrubConfig scrub;
};

/// Run-level counters the CLI/bench report next to the service report.
struct ClusterReport {
  std::uint64_t queries = 0;
  std::uint64_t subscans = 0;
  std::uint64_t subscan_failures = 0;  ///< Timed-out sub-scans retried.
  std::uint64_t hedges = 0;
  std::uint64_t hedge_wins = 0;
  std::uint64_t failovers = 0;  ///< Dead members replaced by spares.
  std::uint64_t rebuilds = 0;
  std::uint64_t health_transitions = 0;
  // Replica integrity.
  std::uint64_t bitrot_blocks_injected = 0;
  /// Sub-scans discarded because the answering replica held persistent
  /// rot; their partitions were re-fetched from healthy replicas.
  std::uint64_t integrity_failures = 0;
  std::uint64_t read_repairs = 0;  ///< Repairs triggered by a foreground read.
  std::uint64_t repairs = 0;       ///< Replica repairs executed (all paths).
  std::uint64_t bytes_repaired = 0;
  std::uint64_t antientropy_rounds = 0;
};

class ClusterCoordinator final : public host::OffloadTarget {
 public:
  /// Re-populates a spare with the given partitions at failover time —
  /// the structural stand-in for the replica copy whose *timing* the
  /// RebuildManager charges (the builder regenerates the records from
  /// the deterministic dataset generator; simulating the byte stream
  /// through both DES instances would model the same outcome slower).
  using SpareLoader = std::function<void(
      SmartSsdDevice& spare, const std::vector<std::uint32_t>& partitions)>;

  /// `devices` = ring members (placement.devices of them) followed by
  /// spares; ownership transfers.
  ClusterCoordinator(CoordinatorConfig config,
                     std::vector<std::unique_ptr<SmartSsdDevice>> devices,
                     SpareLoader spare_loader);

  /// Arms the device-fault doorbell trigger (see DeviceFaultInjector).
  void arm_faults(std::uint64_t request_budget);

  // --- host::OffloadTarget --------------------------------------------
  [[nodiscard]] obs::Observability& observability() noexcept override {
    return obs_;
  }
  platform::LinkGrant doorbell(platform::SimTime at) override;
  [[nodiscard]] platform::SimTime device_now() override {
    return queue_.now();
  }
  void advance_device_to(platform::SimTime at) override {
    queue_.advance_to(at);
  }
  [[nodiscard]] platform::SimTime completion_latency() const override {
    return timing_.nvme_command_latency;
  }
  ndp::ScanStats multi_range_scan(
      const std::vector<ndp::KeyRange>& ranges,
      const std::vector<ndp::FilterPredicate>& predicates,
      std::vector<std::vector<std::uint8_t>>* records) override;

  /// One anti-entropy round: computes every on-ring member's OBSERVED
  /// partition digests from actual flash content, compares them across
  /// the replicas of each partition, localizes divergence to leaf buckets
  /// and repairs bad replicas from a good one (the replica whose observed
  /// tree matches its own maintained tree). Raises kIntegrity (exit 20)
  /// when a divergent partition has no good replica left. Catches what
  /// CRC scrubbing structurally cannot: wrong-data rot whose index CRC
  /// was rewritten to match.
  AntiEntropyReport run_anti_entropy();

  /// Folds per-device health gauges, cluster counters and (summed)
  /// device-stack metrics into the frontend registry; appends device
  /// traces under "devN." prefixes. Call once at the end of a run.
  void publish_metrics();

  [[nodiscard]] const ClusterReport& report() const noexcept {
    return report_;
  }
  [[nodiscard]] const ClusterPlacement& placement() const noexcept {
    return placement_;
  }
  [[nodiscard]] const HealthMonitor& health() const noexcept {
    return health_;
  }
  [[nodiscard]] const RebuildManager& rebuild() const noexcept {
    return rebuild_;
  }
  [[nodiscard]] const fault::DeviceFaultInjector& injector() const noexcept {
    return injector_;
  }
  [[nodiscard]] std::uint32_t device_count() const noexcept {
    return static_cast<std::uint32_t>(devices_.size());
  }
  [[nodiscard]] SmartSsdDevice& device(std::uint32_t index) {
    return *devices_.at(index);
  }
  /// Per-member scrub counters (devices have a scrubber iff scrubbing is
  /// enabled in the config).
  [[nodiscard]] const ScrubReport& scrub_report(std::uint32_t index) const {
    return scrubbers_.at(index)->report();
  }
  [[nodiscard]] bool scrubbing() const noexcept {
    return !scrubbers_.empty();
  }

 private:
  struct SubScan {
    std::uint32_t device = 0;
    std::vector<std::uint32_t> partitions;
    platform::SimTime start_offset = 0;  ///< Retry-round delay vs dispatch.
    platform::SimTime latency = 0;       ///< Effective (factors applied).
    ndp::ScanStats stats;
    std::vector<std::vector<std::uint8_t>> records;  ///< Partition-filtered.
  };

  [[nodiscard]] bool is_spare(std::uint32_t device) const noexcept {
    return device >= config_.placement.devices;
  }
  /// Oracle truth: device powered and link usable at `t`.
  [[nodiscard]] bool reachable_at(std::uint32_t device,
                                  platform::SimTime t) const;
  /// Serving replica for a partition under current health (rotation by
  /// query seq); devices in `excluded` (this query's failed set) are
  /// skipped. Throws kDeviceUnavailable when no replica can serve.
  [[nodiscard]] std::uint32_t serving_replica(
      std::uint32_t partition, const std::vector<bool>& excluded) const;
  /// Latency multiplier at dispatch: brownout factor x rebuild-source
  /// inflation.
  [[nodiscard]] double latency_factor(std::uint32_t device,
                                      platform::SimTime t) const;
  /// Runs `ranges` on one device, filters the results to `partitions`,
  /// applies latency factors; records the latency sample.
  SubScan run_subscan(std::uint32_t device,
                      std::vector<std::uint32_t> partitions,
                      platform::SimTime start_offset,
                      const std::vector<ndp::KeyRange>& ranges,
                      const std::vector<ndp::FilterPredicate>& predicates,
                      platform::SimTime now);
  /// Current hedge deadline (nullopt until kHedgeMinSamples observed).
  [[nodiscard]] std::optional<platform::SimTime> hedge_deadline() const;
  void record_latency_sample(platform::SimTime latency);
  /// Probes every ring member, escalates stale suspects, and fails over
  /// newly-Dead members onto spares (placement swap + rebuild start).
  void refresh_cluster_state(platform::SimTime now);
  void fail_over(std::uint32_t dead, platform::SimTime now);
  /// One-shot bit-rot application once the injector's trigger fires: the
  /// armed device's flash content is really mutated (see
  /// SmartSsdDevice::corrupt_blocks).
  void apply_bitrot(platform::SimTime now);
  /// Executes the replica-sourced repair of `device`'s ledgered rot:
  /// restores content + CRCs, counts bytes, publishes metrics/trace.
  void repair_device(std::uint32_t device, platform::SimTime now,
                     const char* source);
  /// Proportionally rescales `phases` to sum to `target` (residual lands
  /// in kFlash), preserving the phase-sum invariant under latency factors.
  [[nodiscard]] static obs::PhaseBreakdown scale_phases(
      const obs::PhaseBreakdown& phases, platform::SimTime target);

  CoordinatorConfig config_;
  std::vector<std::unique_ptr<SmartSsdDevice>> devices_;
  SpareLoader spare_loader_;
  ClusterPlacement placement_;
  HealthMonitor health_;
  RebuildManager rebuild_;
  fault::DeviceFaultInjector injector_;

  // Frontend timeline: the host-side DES the QueryService aligns against,
  // and its host link (doorbells + merged result transfer) at the
  // platform's default timing.
  platform::TimingConfig timing_;
  platform::EventQueue queue_;
  platform::NvmeLink link_;
  obs::Observability obs_;

  std::vector<std::unique_ptr<DeviceScrubber>> scrubbers_;
  bool bitrot_applied_ = false;
  std::vector<bool> on_ring_;         ///< Device currently a ring member.
  std::vector<std::uint32_t> spare_pool_;  ///< Unused spares, ascending.
  std::vector<platform::SimTime> latency_samples_;  ///< Sorted ascending.
  std::uint64_t query_seq_ = 0;
  ClusterReport report_;
};

}  // namespace ndpgen::cluster
