// Catch-up rebuild of lost replicas onto spare devices.
//
// When the health monitor declares a member Dead, the coordinator swaps a
// spare onto the dead device's ring positions and starts a rebuild: the
// surviving replicas of the lost partitions stream their copies to the
// spare. The copy contends with foreground scans, so rebuild bandwidth is
// arbitrated: kRebuildShare of the source devices' bandwidth goes to the
// copy (setting the rebuild duration) and foreground work dispatched on a
// source inside the window is slowed by 1/(1 - kRebuildShare).
//
// The spare starts serving reads only once the copy completes — until
// then its partitions are served by the surviving replicas — so
// durability is restored at `completes` and read capacity shortly before
// that never regresses. All arithmetic is integer/virtual-time, hence
// byte-deterministic.
#pragma once

#include <cstdint>
#include <vector>

#include "platform/event_queue.hpp"
#include "support/error.hpp"

namespace ndpgen::cluster {

/// Aggregate copy bandwidth of one source device (MB/s, decimal).
inline constexpr std::uint64_t kRebuildBandwidthMbps = 200;
/// Fraction of source-device bandwidth the copy takes; in (0, 1) so the
/// copy and foreground work both get bandwidth.
inline constexpr double kRebuildShare = 0.3;

struct RebuildJob {
  std::uint32_t dead = 0;
  std::uint32_t spare = 0;
  std::uint64_t bytes = 0;  ///< Replica payload re-replicated.
  std::vector<std::uint32_t> sources;
  platform::SimTime started = 0;
  platform::SimTime completes = 0;
};

class RebuildManager {
 public:
  /// Schedules the copy of `bytes` from `sources` (read in parallel, so
  /// the duration is the largest per-source share) onto `spare`; returns
  /// the job. `sources` must be non-empty — no source means the data is
  /// gone and the caller must fail the affected partitions instead.
  const RebuildJob& start(std::uint32_t dead, std::uint32_t spare,
                          std::vector<std::uint32_t> sources,
                          std::uint64_t bytes, platform::SimTime now);

  /// True when `device` is a copy source inside a job window at `t`;
  /// foreground work dispatched on it then pays source_inflation().
  [[nodiscard]] bool device_is_source_at(std::uint32_t device,
                                         platform::SimTime t) const noexcept;

  /// Latency multiplier for foreground work on a copy source.
  [[nodiscard]] double source_inflation() const noexcept {
    return 1.0 / (1.0 - kRebuildShare);
  }

  /// True once `spare`'s catch-up copy has completed by `t` (a spare with
  /// no job never serves).
  [[nodiscard]] bool spare_ready_at(std::uint32_t spare,
                                    platform::SimTime t) const noexcept;

  [[nodiscard]] const std::vector<RebuildJob>& jobs() const noexcept {
    return jobs_;
  }

 private:
  std::vector<RebuildJob> jobs_;
};

}  // namespace ndpgen::cluster
