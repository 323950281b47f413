// Builder wiring the paper's pubgraph workload onto a smart-SSD cluster.
//
// Constructs N+S full device stacks (members + spares), compiles the
// PaperScan parser once, attaches one generated PE per device, turns on
// the partition digests anti-entropy compares, loads each member with
// exactly the partitions placement assigns it, and returns a
// ClusterCoordinator ready to sit behind host::QueryService. The CLI,
// tests and benches all build clusters through this one path so their
// topologies — and their byte-deterministic timelines — agree.
#pragma once

#include <cstdint>
#include <memory>

#include "cluster/coordinator.hpp"
#include "core/framework.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::cluster {

struct ClusterBuildConfig {
  std::uint32_t devices = 4;      ///< Ring members.
  std::uint32_t replication = 2;  ///< Replicas per partition.
  std::uint32_t spares = 1;       ///< Standby devices for rebuild.
  std::uint64_t scale_divisor = 2048;  ///< Pubgraph population divisor.
  std::uint64_t seed = 20210521;
  ndp::ExecMode mode = ndp::ExecMode::kHardware;
  std::uint32_t pes = 1;      ///< PE shards per device scan.
  std::uint32_t threads = 0;  ///< Host threads driving the shards.
  /// Device-level fault schedule (crash/brownout/flap; none by default).
  fault::FaultProfile device_fault;
  /// Per-device media profile (bit errors etc.); seeded per device so the
  /// member fault streams are independent.
  fault::FaultProfile media_fault;
  /// Background CRC scrubbing (see cluster/scrub.hpp).
  ScrubConfig scrub;
};

/// Owns everything the coordinator's devices borrow (compiled artifacts,
/// the generator) — keep it alive as long as the coordinator runs.
struct PubgraphCluster {
  core::Framework framework;
  core::CompileResult compiled;
  workload::PubGraphGenerator generator;
  std::unique_ptr<ClusterCoordinator> coordinator;
};

[[nodiscard]] std::unique_ptr<PubgraphCluster> build_pubgraph_cluster(
    const ClusterBuildConfig& config);

}  // namespace ndpgen::cluster
