#include "cluster/pubgraph_cluster.hpp"

namespace ndpgen::cluster {

namespace {

/// Streams the generator's papers restricted to `wanted` partitions into
/// a device (members at build time, spares at rebuild time). Partition
/// hashing is ring-independent, so a throwaway placement computes it.
void load_partition_subset(SmartSsdDevice& device,
                           const workload::PubGraphGenerator& generator,
                           const ClusterPlacement& hash,
                           const std::vector<bool>& wanted) {
  std::uint64_t index = 0;
  device.load_sorted(
      /*level=*/2,
      [&](std::vector<std::uint8_t>& record) {
        while (index < generator.paper_count()) {
          std::vector<std::uint8_t> candidate =
              generator.paper(index++).serialize();
          if (wanted[hash.partition_of(workload::paper_key(candidate))]) {
            record = std::move(candidate);
            return true;
          }
        }
        return false;
      },
      /*records_per_sst=*/64 * 255);
}

}  // namespace

std::unique_ptr<PubgraphCluster> build_pubgraph_cluster(
    const ClusterBuildConfig& config) {
  NDPGEN_CHECK_ARG(config.devices >= 1, "cluster needs at least one device");
  auto cluster = std::make_unique<PubgraphCluster>();
  cluster->compiled =
      cluster->framework.compile(workload::pubgraph_spec_source());
  cluster->generator = workload::PubGraphGenerator(
      workload::PubGraphConfig{.scale_divisor = config.scale_divisor,
                               .seed = config.seed});

  PlacementConfig placement_config;
  placement_config.devices = config.devices;
  placement_config.replication = config.replication;
  placement_config.seed = config.seed;
  const ClusterPlacement placement(placement_config);

  // Members serve the paper store through the stock PaperScan PE.
  const workload::DatasetInfo& papers =
      workload::describe(workload::Dataset::kPapers);
  const auto& artifacts = cluster->compiled.get(papers.parser);
  std::vector<std::unique_ptr<SmartSsdDevice>> devices;
  const std::uint32_t total = config.devices + config.spares;
  devices.reserve(total);
  for (std::uint32_t d = 0; d < total; ++d) {
    platform::CosmosConfig cosmos_config;
    cosmos_config.fault = config.media_fault;
    // Independent per-member fault streams from one base seed.
    cosmos_config.fault.seed =
        config.media_fault.seed ^ (0x9e3779b97f4a7c15ULL * (d + 1));
    auto device = std::make_unique<SmartSsdDevice>(
        d, cosmos_config, workload::db_config(workload::Dataset::kPapers));
    // Before any load: the maintained trees must see every record the
    // store ever gains. Spares get them too — they load at failover.
    device->enable_digests(placement_config.partitions,
                           [placement](const kv::Key& key) {
                             return placement.partition_of(key);
                           });
    if (d < config.devices) {
      std::vector<bool> wanted(placement_config.partitions, false);
      for (const std::uint32_t p : placement.partitions_of(d)) {
        wanted[p] = true;
      }
      load_partition_subset(*device, cluster->generator, placement, wanted);
    }
    ndp::ExecutorConfig exec_config;
    exec_config.mode = config.mode;
    exec_config.num_pes = config.pes;
    exec_config.pe_threads = config.threads;
    exec_config.result_key_extractor = papers.result_key;
    if (config.mode == ndp::ExecMode::kHardware) {
      exec_config.pe_indices = {cluster->framework.instantiate(
          cluster->compiled, papers.parser, device->platform())};
    }
    device->attach_executor(artifacts.analyzed, artifacts.design.operators,
                            std::move(exec_config));
    devices.push_back(std::move(device));
  }

  CoordinatorConfig coord_config;
  coord_config.placement = placement_config;
  coord_config.device_fault = config.device_fault;
  coord_config.result_key = papers.result_key;
  coord_config.scrub = config.scrub;

  // The rebuild copy is charged by the RebuildManager; this loader is the
  // structural stand-in that materializes the copied partitions on the
  // spare from the same deterministic generator.
  const workload::PubGraphGenerator& generator = cluster->generator;
  const std::uint32_t partitions = placement_config.partitions;
  ClusterCoordinator::SpareLoader loader =
      [&generator, placement_config, partitions](
          SmartSsdDevice& spare,
          const std::vector<std::uint32_t>& lost) {
        const ClusterPlacement hash(placement_config);
        std::vector<bool> wanted(partitions, false);
        for (const std::uint32_t p : lost) wanted[p] = true;
        load_partition_subset(spare, generator, hash, wanted);
      };

  cluster->coordinator = std::make_unique<ClusterCoordinator>(
      coord_config, std::move(devices), std::move(loader));
  return cluster;
}

}  // namespace ndpgen::cluster
