#include "cluster/rebuild.hpp"

namespace ndpgen::cluster {

const RebuildJob& RebuildManager::start(std::uint32_t dead,
                                        std::uint32_t spare,
                                        std::vector<std::uint32_t> sources,
                                        std::uint64_t bytes,
                                        platform::SimTime now) {
  NDPGEN_CHECK_ARG(!sources.empty(),
                   "rebuild needs at least one surviving source replica");
  RebuildJob job;
  job.dead = dead;
  job.spare = spare;
  job.bytes = bytes;
  job.sources = std::move(sources);
  job.started = now;
  // Sources stream disjoint shares in parallel; each contributes
  // kRebuildShare of its bandwidth, so the window is the per-source share
  // at the arbitrated rate. Integer ns: bytes * 1000 / (MB/s) = ns for
  // decimal megabytes.
  const std::uint64_t per_source =
      (bytes + job.sources.size() - 1) / job.sources.size();
  const double rate_bytes_per_ns =
      static_cast<double>(kRebuildBandwidthMbps) * 1e6 / 1e9 * kRebuildShare;
  const auto duration = static_cast<platform::SimTime>(
      static_cast<double>(per_source) / rate_bytes_per_ns);
  job.completes = now + duration;
  jobs_.push_back(std::move(job));
  return jobs_.back();
}

bool RebuildManager::device_is_source_at(
    std::uint32_t device, platform::SimTime t) const noexcept {
  for (const RebuildJob& job : jobs_) {
    if (t < job.started || t >= job.completes) continue;
    for (const std::uint32_t source : job.sources) {
      if (source == device) return true;
    }
  }
  return false;
}

bool RebuildManager::spare_ready_at(std::uint32_t spare,
                                    platform::SimTime t) const noexcept {
  for (const RebuildJob& job : jobs_) {
    if (job.spare == spare && t >= job.completes) return true;
  }
  return false;
}

}  // namespace ndpgen::cluster
