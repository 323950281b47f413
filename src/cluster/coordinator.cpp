#include "cluster/coordinator.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace ndpgen::cluster {

namespace {

/// Per-result cost of the frontend's global k-way merge — the same
/// per-record finalization rate the executor charges for its PE-shard
/// merge (kFinalizePerResult in ndp/executor.cpp), so cluster merge time
/// scales exactly like the device-side machinery it reuses.
constexpr platform::SimTime kMergePerResult = 35;  // ns

/// Hedge deadline = max(kHedgeFloorNs, p99(sub-scan latencies) x
/// kHedgeFactor); a sub-scan slower than that is raced against a second
/// replica. Only active once kHedgeMinSamples latencies were observed.
constexpr double kHedgeFactor = 3.0;
constexpr platform::SimTime kHedgeFloorNs = 200 * 1000;  // 200 us
constexpr std::size_t kHedgeMinSamples = 16;

}  // namespace

ClusterCoordinator::ClusterCoordinator(
    CoordinatorConfig config,
    std::vector<std::unique_ptr<SmartSsdDevice>> devices,
    SpareLoader spare_loader)
    : config_(std::move(config)),
      devices_(std::move(devices)),
      spare_loader_(std::move(spare_loader)),
      placement_(config_.placement),
      health_(static_cast<std::uint32_t>(devices_.size())),
      injector_(config_.device_fault),
      link_(queue_, timing_) {
  NDPGEN_CHECK_ARG(devices_.size() >= config_.placement.devices,
                   "fewer device stacks than ring members");
  NDPGEN_CHECK_ARG(static_cast<bool>(config_.result_key),
                   "cluster coordinator requires result_key for partition "
                   "filtering and the global merge");
  link_.set_observability(&obs_);
  if (config_.scrub.enabled) {
    // Every device (spares included — they scrub once on the ring) gets a
    // patrol walker over its own store.
    scrubbers_.reserve(devices_.size());
    for (auto& device : devices_) {
      scrubbers_.push_back(
          std::make_unique<DeviceScrubber>(*device, config_.scrub));
    }
  }
  on_ring_.assign(devices_.size(), false);
  for (std::uint32_t d = 0; d < config_.placement.devices; ++d) {
    on_ring_[d] = true;
  }
  for (std::uint32_t d = config_.placement.devices; d < devices_.size();
       ++d) {
    spare_pool_.push_back(d);
  }
}

void ClusterCoordinator::arm_faults(std::uint64_t request_budget) {
  injector_.arm(request_budget);
}

platform::LinkGrant ClusterCoordinator::doorbell(platform::SimTime at) {
  // The doorbell stream is a host-timeline property (invariant across
  // --pes/--threads), so it doubles as the fault trigger clock.
  injector_.on_doorbell(at);
  return link_.reserve(at, 0);
}

bool ClusterCoordinator::reachable_at(std::uint32_t device,
                                      platform::SimTime t) const {
  return injector_.alive_at(device, t) && injector_.link_up_at(device, t);
}

double ClusterCoordinator::latency_factor(std::uint32_t device,
                                          platform::SimTime t) const {
  double factor = injector_.latency_factor_at(device, t);
  if (rebuild_.device_is_source_at(device, t)) {
    factor *= rebuild_.source_inflation();
  }
  if (!scrubbers_.empty() && on_ring_[device]) {
    // The patrol read steals scrub_share of the member's read bandwidth —
    // same discipline as rebuild-source inflation.
    factor *= 1.0 / (1.0 - config_.scrub.scrub_share);
  }
  return factor;
}

std::uint32_t ClusterCoordinator::serving_replica(
    std::uint32_t partition, const std::vector<bool>& excluded) const {
  const std::vector<std::uint32_t>& replicas =
      placement_.replicas(partition);
  std::vector<std::uint32_t> eligible;
  std::vector<std::uint32_t> alive;
  const platform::SimTime now = queue_.now();
  for (const std::uint32_t d : replicas) {
    if (excluded[d]) continue;
    if (health_.state(d) == DeviceState::kDead) continue;
    if (is_spare(d) && !rebuild_.spare_ready_at(d, now)) continue;
    eligible.push_back(d);
    if (health_.state(d) == DeviceState::kAlive) alive.push_back(d);
  }
  const std::vector<std::uint32_t>& pool = alive.empty() ? eligible : alive;
  if (pool.empty()) {
    raise(ErrorKind::kDeviceUnavailable,
          "no live replica for partition " + std::to_string(partition) +
              " (replication " +
              std::to_string(config_.placement.replication) + ")");
  }
  // Rotate reads across replicas per query; the rotation is a pure
  // function of (query seq, partition), so it is byte-deterministic.
  return pool[(query_seq_ + partition) % pool.size()];
}

std::optional<platform::SimTime> ClusterCoordinator::hedge_deadline() const {
  if (latency_samples_.size() < kHedgeMinSamples) {
    return std::nullopt;
  }
  // Nearest-rank p99 over the sorted sample window (same convention as
  // the obs histogram percentiles).
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(latency_samples_.size())));
  const std::size_t index =
      std::min(latency_samples_.size() - 1, rank == 0 ? 0 : rank - 1);
  const platform::SimTime p99 = latency_samples_[index];
  const auto deadline = static_cast<platform::SimTime>(
      std::llround(static_cast<double>(p99) * kHedgeFactor));
  return std::max(kHedgeFloorNs, deadline);
}

void ClusterCoordinator::record_latency_sample(platform::SimTime latency) {
  latency_samples_.insert(
      std::upper_bound(latency_samples_.begin(), latency_samples_.end(),
                       latency),
      latency);
}

obs::PhaseBreakdown ClusterCoordinator::scale_phases(
    const obs::PhaseBreakdown& phases, platform::SimTime target) {
  obs::PhaseBreakdown out;
  const std::uint64_t total = phases.total();
  if (total == 0) {
    out[obs::RequestPhase::kFlash] = target;
    return out;
  }
  std::uint64_t assigned = 0;
  for (std::size_t i = 0; i < phases.ns.size(); ++i) {
    // 128-bit intermediate: phase and target are both nanosecond counts
    // that can individually exceed 2^32.
    const auto scaled = static_cast<std::uint64_t>(
        static_cast<unsigned __int128>(phases.ns[i]) * target / total);
    out.ns[i] = scaled;
    assigned += scaled;
  }
  // Rounding residual lands in the flash bucket (the dominant device
  // phase), preserving sum == target exactly.
  out[obs::RequestPhase::kFlash] += target - assigned;
  return out;
}

ClusterCoordinator::SubScan ClusterCoordinator::run_subscan(
    std::uint32_t device, std::vector<std::uint32_t> partitions,
    platform::SimTime start_offset,
    const std::vector<ndp::KeyRange>& ranges,
    const std::vector<ndp::FilterPredicate>& predicates,
    platform::SimTime now) {
  SubScan sub;
  sub.device = device;
  sub.partitions = std::move(partitions);
  sub.start_offset = start_offset;

  std::vector<std::vector<std::uint8_t>> raw;
  sub.stats = devices_[device]->executor().multi_range_scan(ranges,
                                                            predicates,
                                                            &raw);
  const double factor = latency_factor(device, now + start_offset);
  sub.latency = static_cast<platform::SimTime>(std::llround(
      static_cast<double>(sub.stats.elapsed) * factor));

  // Replicas hold identical rows; keep only the partitions this device
  // was assigned so every row is produced exactly once cluster-wide.
  std::vector<bool> assigned(config_.placement.partitions, false);
  for (const std::uint32_t p : sub.partitions) assigned[p] = true;
  sub.records.reserve(raw.size());
  for (auto& record : raw) {
    const std::uint32_t p =
        placement_.partition_of(config_.result_key(record));
    if (assigned[p]) sub.records.push_back(std::move(record));
  }

  ++report_.subscans;
  return sub;
}

void ClusterCoordinator::fail_over(std::uint32_t dead,
                                   platform::SimTime now) {
  on_ring_[dead] = false;
  ++report_.failovers;
  obs_.metrics.add(obs_.metrics.counter("cluster.failovers"), 1);
  if (obs_.tracing()) {
    obs_.trace->instant(obs_.trace->track("cluster"), "failover", "cluster",
                        now,
                        "{\"dead\":" + std::to_string(dead) + "}");
  }
  if (spare_pool_.empty()) return;  // Degraded: survivors carry R-1.

  const std::uint32_t spare = spare_pool_.front();
  spare_pool_.erase(spare_pool_.begin());
  placement_.replace_device(dead, spare);
  on_ring_[spare] = true;

  // The spare inherits exactly the dead member's partitions. Copy sources
  // are the surviving replicas of those partitions.
  const std::vector<std::uint32_t> lost = placement_.partitions_of(spare);
  std::vector<std::uint32_t> sources;
  for (const std::uint32_t p : lost) {
    for (const std::uint32_t d : placement_.replicas(p)) {
      if (d == spare) continue;
      if (health_.state(d) == DeviceState::kDead) continue;
      if (std::find(sources.begin(), sources.end(), d) == sources.end()) {
        sources.push_back(d);
      }
    }
  }
  if (sources.empty()) return;  // Data lost with the member; partitions
                                // fail with kDeviceUnavailable on access.
  std::sort(sources.begin(), sources.end());

  if (spare_loader_) spare_loader_(*devices_[spare], lost);
  const RebuildJob& job = rebuild_.start(
      dead, spare, sources, devices_[spare]->bytes_loaded(), now);
  ++report_.rebuilds;
  obs_.metrics.add(obs_.metrics.counter("cluster.rebuilds"), 1);
  if (obs_.tracing()) {
    obs_.trace->complete(
        obs_.trace->track("cluster"), "rebuild", "cluster", job.started,
        job.completes - job.started,
        "{\"dead\":" + std::to_string(dead) +
            ",\"spare\":" + std::to_string(spare) +
            ",\"bytes\":" + std::to_string(job.bytes) + "}");
  }
}

void ClusterCoordinator::apply_bitrot(platform::SimTime now) {
  if (bitrot_applied_ || !injector_.bitrot_due(now)) return;
  bitrot_applied_ = true;
  const std::uint32_t target = injector_.bitrot_device();
  if (target >= devices_.size()) return;
  const std::uint64_t rotted = devices_[target]->corrupt_blocks(
      injector_.bitrot_blocks(), injector_.bitrot_seed(),
      injector_.bitrot_wrong_data());
  report_.bitrot_blocks_injected += rotted;
  obs_.metrics.add(obs_.metrics.counter("cluster.bitrot.blocks_injected"),
                   rotted);
  if (obs_.tracing()) {
    obs_.trace->instant(
        obs_.trace->track("cluster"), "bitrot", "cluster", now,
        "{\"device\":" + std::to_string(target) +
            ",\"blocks\":" + std::to_string(rotted) +
            ",\"wrong_data\":" +
            (injector_.bitrot_wrong_data() ? "true" : "false") + "}");
  }
}

void ClusterCoordinator::repair_device(std::uint32_t device,
                                       platform::SimTime now,
                                       const char* source) {
  const std::uint64_t bytes = devices_[device]->repair_corruption();
  if (bytes == 0) return;
  ++report_.repairs;
  report_.bytes_repaired += bytes;
  obs::MetricsRegistry& m = obs_.metrics;
  m.add(m.counter("cluster.repair.count"), 1);
  m.add(m.counter("cluster.repair.bytes"), bytes);
  // Charge the modeled background-write duration of the replica-sourced
  // copy (full scrub-read bandwidth; the write happens off the query's
  // critical path, so it is accounting, not critical-path time).
  const auto repair_ns = static_cast<std::uint64_t>(
      static_cast<double>(bytes) * 1000.0 / config_.scrub.bandwidth_mbps);
  m.add(m.counter("cluster.repair.ns"), repair_ns);
  if (obs_.tracing()) {
    obs_.trace->complete(
        obs_.trace->track("cluster"), "repair", "cluster", now, repair_ns,
        "{\"device\":" + std::to_string(device) + ",\"bytes\":" +
            std::to_string(bytes) + ",\"source\":\"" + source + "\"}");
  }
}

void ClusterCoordinator::refresh_cluster_state(platform::SimTime now) {
  // Heartbeats: probe every ring member at this dispatch instant. In a
  // DES the probe itself is free; what matters is the deterministic
  // (reachable, time) stream it feeds the monitor.
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (!on_ring_[d]) continue;
    health_.record_heartbeat(d, reachable_at(d, now), now);
  }
  health_.refresh(now);
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (on_ring_[d] && health_.state(d) == DeviceState::kDead) {
      fail_over(d, now);
    }
  }
  report_.health_transitions = health_.transitions();

  // Latent-fault machinery, all on the same deterministic dispatch clock:
  // the armed bit-rot lands first, then the patrol scrubbers advance and
  // repair whatever CRC-visible rot they catch.
  apply_bitrot(now);
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (scrubbers_.empty() || !on_ring_[d]) continue;
    if (!reachable_at(d, now)) continue;
    const std::uint64_t failures = scrubbers_[d]->advance(now);
    if (failures == 0) continue;
    obs_.metrics.add(obs_.metrics.counter("cluster.scrub.detections"),
                     failures);
    health_.record_integrity_error(d, now);
    if (obs_.tracing()) {
      obs_.trace->instant(
          obs_.trace->track("cluster"), "scrub-detect", "cluster", now,
          "{\"device\":" + std::to_string(d) +
              ",\"blocks\":" + std::to_string(failures) + "}");
    }
    repair_device(d, now, "scrub");
  }
}

ndp::ScanStats ClusterCoordinator::multi_range_scan(
    const std::vector<ndp::KeyRange>& ranges,
    const std::vector<ndp::FilterPredicate>& predicates,
    std::vector<std::vector<std::uint8_t>>* records) {
  const platform::SimTime now = queue_.now();
  ++query_seq_;
  ++report_.queries;
  refresh_cluster_state(now);

  // Hedge deadline is derived from samples observed BEFORE this query, so
  // sub-scan evaluation order cannot feed back into its own deadline.
  const std::optional<platform::SimTime> deadline = hedge_deadline();

  // --- Scatter: every partition to one serving replica. ----------------
  std::vector<bool> excluded(devices_.size(), false);
  std::vector<bool> integrity_excluded(devices_.size(), false);
  std::vector<std::vector<std::uint32_t>> assigned(devices_.size());
  for (std::uint32_t p = 0; p < config_.placement.partitions; ++p) {
    assigned[serving_replica(p, excluded)].push_back(p);
  }

  std::vector<SubScan> done;
  platform::SimTime round_offset = 0;
  while (true) {
    std::vector<std::uint32_t> failed_partitions;
    bool any_failure = false;
    platform::SimTime next_offset = round_offset;
    for (std::uint32_t d = 0; d < devices_.size(); ++d) {
      if (assigned[d].empty()) continue;
      if (!reachable_at(d, now + round_offset)) {
        // The sub-scan never completes; the frontend detects it at the
        // NVMe timeout, marks the device and re-scatters its partitions.
        ++report_.subscan_failures;
        obs_.metrics.add(obs_.metrics.counter("cluster.subscan_failures"),
                         1);
        health_.record_error(d, now + round_offset);
        excluded[d] = true;
        any_failure = true;
        // Unreachable members are detected in parallel at the NVMe
        // timeout; the retry round starts one detection window later.
        next_offset =
            std::max(next_offset, round_offset + timing_.nvme_timeout);
        failed_partitions.insert(failed_partitions.end(),
                                 assigned[d].begin(), assigned[d].end());
        if (obs_.tracing()) {
          obs_.trace->instant(
              obs_.trace->track("cluster"), "subscan-timeout", "cluster",
              now + round_offset,
              "{\"device\":" + std::to_string(d) +
                  ",\"partitions\":" + std::to_string(assigned[d].size()) +
                  "}");
        }
        continue;
      }
      SubScan sub = run_subscan(d, std::move(assigned[d]), round_offset,
                                ranges, predicates, now);

      // Online read-repair: the replica answered, but some of its blocks
      // held persistent rot (CRC still bad after the recovery re-read).
      // Its rows cannot be trusted — discard the whole sub-scan, re-fetch
      // the partitions from healthy replicas (so the query's result bytes
      // equal the uncorrupted run's) and repair the bad member off the
      // critical path. Detection time is the sub-scan's own completion,
      // not the NVMe timeout.
      if (sub.stats.integrity_blocks > 0) {
        ++report_.integrity_failures;
        ++report_.read_repairs;
        obs_.metrics.add(obs_.metrics.counter("cluster.integrity_failures"),
                         1);
        health_.record_integrity_error(d, now + round_offset);
        excluded[d] = true;
        integrity_excluded[d] = true;
        any_failure = true;
        next_offset = std::max(next_offset, round_offset + sub.latency);
        // Repair needs a healthy source: every partition this sub-scan
        // served must have some other replica with clean flash. If a
        // partition's copies are ALL rotted, the divergence is
        // unrepairable — the typed kIntegrity failure (exit 20).
        for (const std::uint32_t p : sub.partitions) {
          bool source = false;
          for (const std::uint32_t r : placement_.replicas(p)) {
            if (r == d || health_.state(r) == DeviceState::kDead) continue;
            if (!devices_[r]->has_corruption()) {
              source = true;
              break;
            }
          }
          if (!source) {
            raise(ErrorKind::kIntegrity,
                  "unrepairable divergence: every replica of partition " +
                      std::to_string(p) + " holds corrupt data");
          }
        }
        failed_partitions.insert(failed_partitions.end(),
                                 sub.partitions.begin(),
                                 sub.partitions.end());
        if (obs_.tracing()) {
          obs_.trace->instant(
              obs_.trace->track("cluster"), "read-repair", "cluster",
              now + round_offset,
              "{\"device\":" + std::to_string(d) + ",\"bad_blocks\":" +
                  std::to_string(sub.stats.integrity_blocks) +
                  ",\"partitions\":" +
                  std::to_string(sub.partitions.size()) + "}");
        }
        repair_device(d, now + round_offset + sub.latency, "read-repair");
        continue;
      }
      health_.record_success(d, now + round_offset);

      // Hedged read: race a second replica when the primary blows the
      // p99-derived deadline. Replicas hold identical rows, so the result
      // bytes are invariant; only the latency (and the work accounting)
      // changes.
      if (deadline.has_value() && sub.latency > *deadline) {
        ++report_.hedges;
        obs_.metrics.add(obs_.metrics.counter("cluster.hedges"), 1);
        std::vector<std::vector<std::uint32_t>> alt(devices_.size());
        bool full_cover = true;
        for (const std::uint32_t p : sub.partitions) {
          const std::vector<std::uint32_t>& replicas =
              placement_.replicas(p);
          bool covered = false;
          for (const std::uint32_t r : replicas) {
            if (r == d || excluded[r]) continue;
            if (health_.state(r) == DeviceState::kDead) continue;
            if (is_spare(r) && !rebuild_.spare_ready_at(r, now)) continue;
            if (!reachable_at(r, now + round_offset)) continue;
            alt[r].push_back(p);
            covered = true;
            break;
          }
          full_cover = full_cover && covered;
        }
        if (full_cover) {
          platform::SimTime hedge_latency = 0;
          for (std::uint32_t r = 0; r < devices_.size(); ++r) {
            if (alt[r].empty()) continue;
            SubScan hedge = run_subscan(r, std::move(alt[r]), round_offset,
                                        ranges, predicates, now);
            hedge_latency = std::max(hedge_latency, hedge.latency);
            // Fold the hedge's device work into the primary's stats; its
            // records are byte-identical to the primary's and dropped.
            sub.stats.blocks += hedge.stats.blocks;
            sub.stats.tuples_scanned += hedge.stats.tuples_scanned;
            sub.stats.bytes_from_flash += hedge.stats.bytes_from_flash;
          }
          const platform::SimTime hedged_path = *deadline + hedge_latency;
          if (hedged_path < sub.latency) {
            ++report_.hedge_wins;
            obs_.metrics.add(obs_.metrics.counter("cluster.hedge_wins"), 1);
            if (obs_.tracing()) {
              obs_.trace->instant(
                  obs_.trace->track("cluster"), "hedge-win", "cluster",
                  now + round_offset,
                  "{\"device\":" + std::to_string(d) + ",\"saved_ns\":" +
                      std::to_string(sub.latency - hedged_path) + "}");
            }
            sub.latency = hedged_path;
          }
        }
      }
      // Record the *effective* (post-hedge) latency: feeding raw slow
      // latencies back into the window would drag the p99-derived
      // deadline up to the slow device's own level and disable hedging
      // against a persistently degraded member.
      record_latency_sample(sub.latency);
      done.push_back(std::move(sub));
    }
    if (!any_failure) break;
    // The retry round starts at the latest detection instant of this
    // round (timeout window for unreachable members, sub-scan completion
    // for integrity discards).
    round_offset = next_offset;
    assigned.assign(devices_.size(), {});
    for (const std::uint32_t p : failed_partitions) {
      assigned[serving_replica(p, excluded)].push_back(p);
    }
  }

  // --- Gather: k-way merge by key into global order — byte-equal to one
  // device scanning the whole dataset (each bulk-loaded member returns
  // its rows key-ascending, and every partition was served exactly once).
  ndp::ScanStats stats;
  platform::SimTime critical = 0;
  std::size_t critical_sub = 0;
  for (std::size_t i = 0; i < done.size(); ++i) {
    const SubScan& sub = done[i];
    stats.blocks += sub.stats.blocks;
    stats.tuples_scanned += sub.stats.tuples_scanned;
    stats.tuples_matched += sub.stats.tuples_matched;
    stats.bytes_from_flash += sub.stats.bytes_from_flash;
    stats.blocks_via_software += sub.stats.blocks_via_software;
    stats.blocks_retried += sub.stats.blocks_retried;
    stats.blocks_degraded_to_software +=
        sub.stats.blocks_degraded_to_software;
    stats.uncorrectable_blocks += sub.stats.uncorrectable_blocks;
    stats.integrity_blocks += sub.stats.integrity_blocks;
    stats.shards = std::max(stats.shards, sub.stats.shards);
    stats.pe_phase_cycles =
        std::max(stats.pe_phase_cycles, sub.stats.pe_phase_cycles);
    const platform::SimTime completes = sub.start_offset + sub.latency;
    if (completes > critical) {
      critical = completes;
      critical_sub = i;
    }
  }

  std::vector<std::size_t> cursor(done.size(), 0);
  while (true) {
    std::size_t best = done.size();
    kv::Key best_key{};
    for (std::size_t i = 0; i < done.size(); ++i) {
      if (cursor[i] >= done[i].records.size()) continue;
      const kv::Key key = config_.result_key(done[i].records[cursor[i]]);
      if (best == done.size() || key < best_key) {
        best = i;
        best_key = key;
      }
    }
    if (best == done.size()) break;
    std::vector<std::uint8_t>& record = done[best].records[cursor[best]++];
    ++stats.results;
    stats.result_bytes += record.size();
    if (records != nullptr) records->push_back(std::move(record));
  }

  // --- Timing composition (arithmetic; phases sum exactly to elapsed):
  // critical sub-scan path, then the global merge, then the merged result
  // crosses the frontend host link.
  const platform::SimTime merge_ns = stats.results * kMergePerResult;
  const platform::LinkGrant grant =
      link_.reserve(now + critical + merge_ns, stats.result_bytes);
  const platform::SimTime end = grant.done;
  queue_.advance_to(end);
  stats.elapsed = end - now;
  stats.flash_done = critical;

  if (!done.empty()) {
    const SubScan& crit = done[critical_sub];
    stats.phases = scale_phases(crit.stats.phases, crit.latency);
    // Timeout-detection rounds are command-path time; the critical
    // sub-scan attains `critical`, so start_offset + latency == critical.
    stats.phases[obs::RequestPhase::kDoorbell] += crit.start_offset;
  } else {
    stats.phases[obs::RequestPhase::kDoorbell] = critical;
  }
  // += not =: the scaled critical sub-scan already carries the device's
  // own merge/transfer share inside crit.latency; the frontend merge and
  // host-link crossing stack on top of it.
  stats.phases[obs::RequestPhase::kMerge] += merge_ns;
  stats.phases[obs::RequestPhase::kDoorbell] += grant.penalty;
  stats.phases[obs::RequestPhase::kTransfer] +=
      (end - (now + critical + merge_ns)) - grant.penalty;

  if (obs_.tracing()) {
    obs_.trace->complete(
        obs_.trace->track("cluster"), "scatter-gather", "cluster", now,
        stats.elapsed,
        "{\"subscans\":" + std::to_string(done.size()) +
            ",\"results\":" + std::to_string(stats.results) +
            ",\"critical_device\":" +
            std::to_string(done.empty() ? 0 : done[critical_sub].device) +
            "}");
  }
  obs_.metrics.add(obs_.metrics.counter("cluster.queries"), 1);
  obs_.metrics.add(obs_.metrics.counter("cluster.subscans"), done.size());
  return stats;
}

AntiEntropyReport ClusterCoordinator::run_anti_entropy() {
  const platform::SimTime start = queue_.now();
  refresh_cluster_state(start);
  AntiEntropyReport rep;
  ++report_.antientropy_rounds;

  // Observed digests: what each on-ring member's flash ACTUALLY holds.
  std::vector<std::optional<PartitionDigestSet>> observed(devices_.size());
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (!on_ring_[d] || !devices_[d]->digests_enabled()) continue;
    observed[d] = devices_[d]->observed_digests();
  }

  std::vector<bool> needs_repair(devices_.size(), false);
  for (std::uint32_t p = 0; p < config_.placement.partitions; ++p) {
    std::vector<std::uint32_t> members;
    for (const std::uint32_t d : placement_.replicas(p)) {
      if (observed[d].has_value()) members.push_back(d);
    }
    if (members.size() < 2) continue;  // Nothing to compare against.
    ++rep.partitions_checked;
    bool divergent = false;
    for (std::size_t i = 1; i < members.size(); ++i) {
      if (observed[members[i]]->digest(p) !=
          observed[members[0]]->digest(p)) {
        divergent = true;
        break;
      }
    }
    if (!divergent) continue;
    ++rep.divergent_partitions;

    // The good copy is the replica whose observed tree matches what its
    // own write path says it should hold.
    std::uint32_t good = devices_.size();
    for (const std::uint32_t d : members) {
      if (observed[d]->digest(p) ==
          devices_[d]->maintained_digests().digest(p)) {
        good = d;
        break;
      }
    }
    if (good == devices_.size()) {
      raise(ErrorKind::kIntegrity,
            "unrepairable divergence: no replica of partition " +
                std::to_string(p) + " matches its maintained digest");
    }
    for (const std::uint32_t d : members) {
      if (d == good) continue;
      if (observed[d]->digest(p) == observed[good]->digest(p)) continue;
      // Localization: only these leaf buckets need re-syncing.
      rep.divergent_leaves += PartitionDigestSet::divergent_leaves(
                                  observed[d]->digest(p),
                                  observed[good]->digest(p))
                                  .size();
      needs_repair[d] = true;
      health_.record_integrity_error(d, start);
    }
  }

  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    if (!needs_repair[d]) continue;
    const std::uint64_t before = report_.bytes_repaired;
    repair_device(d, start, "anti-entropy");
    if (report_.bytes_repaired > before) {
      ++rep.replicas_repaired;
      rep.bytes_repaired += report_.bytes_repaired - before;
    }
    observed[d] = devices_[d]->observed_digests();
  }

  // Convergence: after repair every partition's replicas must agree.
  rep.converged = true;
  for (std::uint32_t p = 0; p < config_.placement.partitions; ++p) {
    std::uint32_t first = devices_.size();
    for (const std::uint32_t d : placement_.replicas(p)) {
      if (!observed[d].has_value()) continue;
      if (first == devices_.size()) {
        first = d;
      } else if (!(observed[d]->digest(p) == observed[first]->digest(p))) {
        rep.converged = false;
      }
    }
  }

  obs::MetricsRegistry& m = obs_.metrics;
  m.add(m.counter("cluster.antientropy.rounds"), 1);
  m.add(m.counter("cluster.antientropy.divergent_partitions"),
        rep.divergent_partitions);
  m.add(m.counter("cluster.antientropy.divergent_leaves"),
        rep.divergent_leaves);
  m.add(m.counter("cluster.antientropy.replicas_repaired"),
        rep.replicas_repaired);
  if (obs_.tracing()) {
    obs_.trace->complete(
        obs_.trace->track("cluster"), "anti-entropy", "cluster", start,
        queue_.now() - start,
        "{\"checked\":" + std::to_string(rep.partitions_checked) +
            ",\"divergent\":" + std::to_string(rep.divergent_partitions) +
            ",\"repaired\":" + std::to_string(rep.replicas_repaired) +
            ",\"converged\":" + (rep.converged ? std::string("true")
                                               : std::string("false")) +
            "}");
  }
  return rep;
}

void ClusterCoordinator::publish_metrics() {
  obs::MetricsRegistry& m = obs_.metrics;
  m.set(m.gauge("cluster.devices"), devices_.size());
  m.set(m.gauge("cluster.replication"), config_.placement.replication);
  m.set(m.gauge("cluster.health.transitions"), health_.transitions());
  report_.health_transitions = health_.transitions();
  if (!scrubbers_.empty()) {
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
    std::uint64_t transient = 0;
    std::uint64_t failures = 0;
    for (const auto& scrubber : scrubbers_) {
      blocks += scrubber->report().blocks_verified;
      bytes += scrubber->report().bytes_scanned;
      transient += scrubber->report().transient_recovered;
      failures += scrubber->report().crc_failures;
    }
    m.set(m.gauge("cluster.scrub.share_milli"),
          static_cast<std::uint64_t>(
              std::llround(config_.scrub.scrub_share * 1000.0)));
    m.set(m.gauge("cluster.scrub.blocks_verified"), blocks);
    m.set(m.gauge("cluster.scrub.bytes_scanned"), bytes);
    m.set(m.gauge("cluster.scrub.transient_recovered"), transient);
    m.set(m.gauge("cluster.scrub.crc_failures"), failures);
  }
  for (std::uint32_t d = 0; d < devices_.size(); ++d) {
    const std::string prefix = "cluster.dev" + std::to_string(d) + ".";
    m.set(m.gauge(prefix + "state"),
          static_cast<std::uint64_t>(health_.state(d)));
    m.set(m.gauge(prefix + "error_ewma_milli"),
          static_cast<std::uint64_t>(
              std::llround(health_.error_rate(d) * 1000.0)));
    m.set(m.gauge(prefix + "on_ring"), on_ring_[d] ? 1 : 0);
    m.set(m.gauge(prefix + "records"), devices_[d]->records_loaded());
    // Fold the member's device-stack counters in as cluster-wide totals
    // (counters add; gauges high-water), then its trace lanes under a
    // stable devN. prefix.
    devices_[d]->platform().publish_metrics();
    m.merge_from(devices_[d]->platform().observability().metrics);
    if (obs_.tracing() &&
        devices_[d]->platform().observability().tracing()) {
      obs_.trace->append_from(
          *devices_[d]->platform().observability().trace, prefix);
    }
  }
}

}  // namespace ndpgen::cluster
