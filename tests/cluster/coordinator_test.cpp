// End-to-end cluster tests: scatter-gather equivalence with a single
// device, crash-driven failover + rebuild with zero failed queries,
// hedged reads, typed replica exhaustion, and byte-determinism across
// seeds, PEs and threads.
#include "cluster/coordinator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/pubgraph_cluster.hpp"
#include "core/framework.hpp"
#include "host/service.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::cluster {
namespace {

const std::vector<ndp::FilterPredicate> kPredicates = {
    ndp::FilterPredicate{"year", "lt", 1990}};

struct ClusterParams {
  std::uint32_t devices = 4;
  std::uint32_t replication = 2;
  std::uint32_t spares = 1;
  std::uint64_t scale = 32768;
  std::uint32_t pes = 1;
  std::uint32_t threads = 0;
  std::uint64_t requests = 48;
  std::uint64_t arrival_rate = 2000;
  fault::FaultProfile device_fault;
  ScrubConfig scrub;
};

struct ClusterRun {
  std::unique_ptr<PubgraphCluster> stack;
  host::ServiceReport report;
  ClusterReport cluster;
  std::string metrics_json;
};

host::ServiceConfig service_config_for(std::uint32_t tenants) {
  host::ServiceConfig config;
  config.tenants = tenants;
  config.result_key = workload::paper_result_key;
  config.predicates = kPredicates;
  return config;
}

host::LoadConfig load_config_for(std::uint32_t tenants,
                                 std::uint64_t requests,
                                 std::uint64_t key_space,
                                 std::uint64_t arrival_rate = 2000) {
  host::LoadConfig config;
  config.tenants = tenants;
  config.requests = requests;
  config.arrival_rate = arrival_rate;
  config.key_space = key_space;
  return config;
}

/// One isolated service run against a fresh cluster.
ClusterRun run_cluster(const ClusterParams& params) {
  ClusterBuildConfig build;
  build.devices = params.devices;
  build.replication = params.replication;
  build.spares = params.spares;
  build.scale_divisor = params.scale;
  build.pes = params.pes;
  build.threads = params.threads;
  build.device_fault = params.device_fault;
  build.scrub = params.scrub;
  ClusterRun out;
  out.stack = build_pubgraph_cluster(build);
  ClusterCoordinator& coord = *out.stack->coordinator;
  coord.arm_faults(params.requests);

  host::QueryService service(coord, service_config_for(2));
  host::LoadGenerator load(load_config_for(2, params.requests,
                                           out.stack->generator.paper_count(),
                                           params.arrival_rate));
  out.report = service.run(load);
  coord.publish_metrics();
  out.cluster = coord.report();
  out.metrics_json = coord.observability().metrics.dump_json();
  return out;
}

void expect_reports_equal(const host::ServiceReport& a,
                          const host::ServiceReport& b) {
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
}

TEST(ClusterCoordinatorTest, ScatterGatherMatchesSingleDeviceReference) {
  // Reference: the whole dataset on one device.
  platform::CosmosPlatform cosmos;
  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
  const auto& artifacts = compiled.get("PaperScan");
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 32768});
  kv::DBConfig db_config;
  db_config.record_bytes = workload::PaperRecord::kBytes;
  db_config.extractor = workload::paper_key;
  kv::NKV db(cosmos, db_config);
  workload::load_papers(db, generator);
  ndp::ExecutorConfig exec_config;
  exec_config.mode = ndp::ExecMode::kSoftware;
  exec_config.result_key_extractor = workload::paper_result_key;
  ndp::HybridExecutor reference(db, artifacts.analyzed,
                                artifacts.design.operators, exec_config);

  ClusterBuildConfig build;
  build.scale_divisor = 32768;
  build.mode = ndp::ExecMode::kSoftware;
  const auto stack = build_pubgraph_cluster(build);
  ClusterCoordinator& coord = *stack->coordinator;

  const std::uint64_t n = generator.paper_count();
  const std::vector<std::vector<ndp::KeyRange>> cases = {
      {{kv::Key{1, 0}, kv::Key{n, 0}}},
      {{kv::Key{n / 4, 0}, kv::Key{n / 2, 0}}},
      {{kv::Key{1, 0}, kv::Key{5, 0}}, {kv::Key{n - 5, 0}, kv::Key{n, 0}}},
  };
  for (const auto& ranges : cases) {
    std::vector<std::vector<std::uint8_t>> expected, actual;
    const auto ref_stats =
        reference.multi_range_scan(ranges, kPredicates, &expected);
    const auto stats = coord.multi_range_scan(ranges, kPredicates, &actual);
    // Byte-equal result stream in the same global key order: every
    // partition is served exactly once, replicas never duplicate rows.
    EXPECT_EQ(actual, expected);
    EXPECT_EQ(stats.results, ref_stats.results);
    // Phase-sum invariant survives the scatter-gather composition.
    EXPECT_EQ(stats.phases.total(), stats.elapsed);
  }
  EXPECT_EQ(coord.report().queries, cases.size());
  EXPECT_EQ(coord.report().subscan_failures, 0u);
}

TEST(ClusterCoordinatorTest, CrashMidRunCompletesEveryQuery) {
  ClusterParams healthy;
  const ClusterRun baseline = run_cluster(healthy);
  ASSERT_EQ(baseline.report.dropped, 0u);
  ASSERT_EQ(baseline.cluster.failovers, 0u);

  ClusterParams crashed = healthy;
  auto crash_profile = fault::FaultProfile::parse("device-loss");
  crashed.device_fault = crash_profile.value_or_raise();
  const ClusterRun run = run_cluster(crashed);

  // The whole point: a member dies mid-run and no query fails, and the
  // replicas return the exact rows the healthy cluster returned.
  EXPECT_EQ(run.report.completed, 48u);
  EXPECT_EQ(run.report.dropped, 0u);
  EXPECT_EQ(run.report.results, baseline.report.results);
  EXPECT_EQ(run.cluster.failovers, 1u);
  EXPECT_EQ(run.cluster.rebuilds, 1u);
  EXPECT_GE(run.cluster.health_transitions, 2u);  // Alive->Suspect->Dead.
  EXPECT_NE(run.metrics_json.find("\"cluster.failovers\""),
            std::string::npos);

  // The dead member left the ring; its spare took over.
  const ClusterCoordinator& coord = *run.stack->coordinator;
  EXPECT_EQ(coord.health().state(0), DeviceState::kDead);
  EXPECT_FALSE(coord.placement().partitions_of(0).size() > 0);
  EXPECT_GT(coord.placement().partitions_of(4).size(), 0u);
}

TEST(ClusterCoordinatorTest, MatchesSingleDeviceServiceResults) {
  // Same load stream against one device holding everything vs the
  // cluster: identical per-request results.
  platform::CosmosPlatform cosmos;
  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
  const auto& artifacts = compiled.get("PaperScan");
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 32768});
  kv::DBConfig db_config;
  db_config.record_bytes = workload::PaperRecord::kBytes;
  db_config.extractor = workload::paper_key;
  kv::NKV db(cosmos, db_config);
  workload::load_papers(db, generator);
  ndp::ExecutorConfig exec_config;
  exec_config.mode = ndp::ExecMode::kHardware;
  exec_config.result_key_extractor = workload::paper_result_key;
  exec_config.pe_indices = {
      framework.instantiate(compiled, "PaperScan", cosmos)};
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, exec_config);
  host::SingleDeviceTarget device(executor, cosmos);
  host::QueryService single(device, service_config_for(2));
  host::LoadGenerator load(
      load_config_for(2, 48, generator.paper_count()));
  const host::ServiceReport reference = single.run(load);

  const ClusterRun run = run_cluster(ClusterParams{});
  EXPECT_EQ(run.report.completed, reference.completed);
  EXPECT_EQ(run.report.results, reference.results);
}

TEST(ClusterCoordinatorTest, FailoverRunIsByteDeterministic) {
  ClusterParams params;
  auto profile = fault::FaultProfile::parse("device-loss");
  params.device_fault = profile.value_or_raise();
  const ClusterRun first = run_cluster(params);
  const ClusterRun second = run_cluster(params);
  expect_reports_equal(first.report, second.report);
  EXPECT_EQ(first.cluster.subscans, second.cluster.subscans);
  EXPECT_EQ(first.cluster.failovers, second.cluster.failovers);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(ClusterCoordinatorTest, ThreadCountNeverChangesTheTimeline) {
  ClusterParams params;
  params.pes = 2;
  params.threads = 1;
  auto profile = fault::FaultProfile::parse("device-loss");
  params.device_fault = profile.value_or_raise();
  const ClusterRun serial = run_cluster(params);
  params.threads = 4;
  const ClusterRun threaded = run_cluster(params);
  expect_reports_equal(serial.report, threaded.report);
  EXPECT_EQ(serial.metrics_json, threaded.metrics_json);
}

TEST(ClusterCoordinatorTest, LinkFlapRecoversWithoutFailover) {
  ClusterParams params;
  fault::FaultProfile& fault = params.device_fault;
  fault.device_fault = fault::DeviceFaultKind::kLinkFlap;
  fault.device_fault_device = 1;
  fault.device_fault_at_frac = 0.3;
  fault.device_fault_duration_ns = 1'000'000;  // 1 ms < dead_after (10 ms).
  const ClusterRun run = run_cluster(params);
  EXPECT_EQ(run.report.completed, 48u);
  EXPECT_EQ(run.report.dropped, 0u);
  // A transient flap must never cost us a member or a rebuild.
  EXPECT_EQ(run.cluster.failovers, 0u);
  EXPECT_EQ(run.cluster.rebuilds, 0u);
  EXPECT_NE(run.stack->coordinator->health().state(1), DeviceState::kDead);
}

TEST(ClusterCoordinatorTest, HedgedReadsEngageUnderBrownout) {
  ClusterParams baseline_params;
  baseline_params.requests = 64;
  baseline_params.arrival_rate = 500;
  const ClusterRun baseline = run_cluster(baseline_params);

  ClusterParams params = baseline_params;
  fault::FaultProfile& fault = params.device_fault;
  fault.device_fault = fault::DeviceFaultKind::kBrownout;
  fault.device_fault_device = 2;
  fault.device_fault_at_frac = 0.5;  // Mid-run, after a latency baseline
                                     // has been established...
  fault.device_fault_duration_ns = 1'000'000'000'000;  // ...then for good.
  fault.brownout_factor = 25.0;
  const ClusterRun run = run_cluster(params);
  EXPECT_EQ(run.report.completed, 64u);
  EXPECT_EQ(run.report.dropped, 0u);
  // Once the latency baseline is established, the slow member's sub-scans
  // blow the p99-derived deadline and are raced against second replicas.
  EXPECT_GT(run.cluster.hedges, 0u);
  // Hedging changes timing, never results.
  EXPECT_EQ(run.report.results, baseline.report.results);
}

TEST(ClusterCoordinatorTest, ReplicaExhaustionRaisesTypedError) {
  ClusterBuildConfig build;
  build.devices = 2;
  build.replication = 1;  // No redundancy, no spare: data loss is real.
  build.spares = 0;
  build.scale_divisor = 32768;
  build.mode = ndp::ExecMode::kSoftware;
  fault::FaultProfile& fault = build.device_fault;
  fault.device_fault = fault::DeviceFaultKind::kCrash;
  fault.device_fault_device = 0;
  fault.device_fault_at_ns = 1;
  const auto stack = build_pubgraph_cluster(build);
  ClusterCoordinator& coord = *stack->coordinator;
  coord.advance_device_to(1'000'000);  // Past the crash instant.

  const std::uint64_t n = stack->generator.paper_count();
  const std::vector<ndp::KeyRange> ranges = {{kv::Key{1, 0}, kv::Key{n, 0}}};
  try {
    coord.multi_range_scan(ranges, kPredicates, nullptr);
    FAIL() << "unreplicated partitions on a dead device must not resolve";
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kDeviceUnavailable);
    EXPECT_EQ(exit_code(error.kind()), 19);
  }
}

TEST(ClusterCoordinatorTest, BitRotTriggersReadRepairWithByteEqualResults) {
  const ClusterRun baseline = run_cluster(ClusterParams{});
  ASSERT_EQ(baseline.cluster.read_repairs, 0u);

  ClusterParams params;
  auto profile = fault::FaultProfile::parse("bit-rot");
  params.device_fault = profile.value_or_raise();
  const ClusterRun run = run_cluster(params);

  // Flash content really rotted mid-run; the foreground CRC check caught
  // it, the coordinator discarded the rotted sub-scan, re-fetched the
  // partitions from a healthy replica — byte-equal rows — and repaired
  // the bad replica off the critical path.
  EXPECT_GT(run.cluster.bitrot_blocks_injected, 0u);
  EXPECT_GE(run.cluster.integrity_failures, 1u);
  EXPECT_GE(run.cluster.read_repairs, 1u);
  EXPECT_GE(run.cluster.repairs, 1u);
  EXPECT_GT(run.cluster.bytes_repaired, 0u);
  EXPECT_EQ(run.report.completed, 48u);
  EXPECT_EQ(run.report.dropped, 0u);
  EXPECT_EQ(run.report.results, baseline.report.results);
  // The repair actually cleared the ledger: no corruption survives.
  EXPECT_FALSE(run.stack->coordinator->device(0).has_corruption());
  // Rot never costs a member: repair, not failover.
  EXPECT_EQ(run.cluster.failovers, 0u);
  EXPECT_NE(run.metrics_json.find("\"cluster.repair.count\""),
            std::string::npos);
}

TEST(ClusterCoordinatorTest, ScrubDetectsRotBeforeForegroundReads) {
  ClusterParams params;
  auto profile = fault::FaultProfile::parse(
      "bit-rot,device_bitrot_at_us=1");  // Rot before the first request.
  params.device_fault = profile.value_or_raise();
  params.scrub.enabled = true;
  params.arrival_rate = 200;  // Slow arrivals leave the patrol headroom.
  const ClusterRun run = run_cluster(params);

  const ClusterCoordinator& coord = *run.stack->coordinator;
  ASSERT_TRUE(coord.scrubbing());
  std::uint64_t crc_failures = 0;
  std::uint64_t blocks_verified = 0;
  for (std::uint32_t d = 0; d < coord.device_count(); ++d) {
    crc_failures += coord.scrub_report(d).crc_failures;
    blocks_verified += coord.scrub_report(d).blocks_verified;
  }
  EXPECT_GT(blocks_verified, 0u);
  EXPECT_GE(crc_failures, 1u);
  EXPECT_GE(run.cluster.repairs, 1u);
  EXPECT_EQ(run.report.dropped, 0u);
  EXPECT_NE(run.metrics_json.find("\"cluster.scrub.blocks_verified\""),
            std::string::npos);
}

TEST(ClusterCoordinatorTest, AntiEntropyConvergesAfterWrongDataRot) {
  ClusterParams params;
  auto profile =
      fault::FaultProfile::parse("bit-rot,device_bitrot_wrong_data=1");
  params.device_fault = profile.value_or_raise();
  params.scrub.enabled = true;
  const ClusterRun run = run_cluster(params);

  // Wrong-data rot rewrites the index CRC to match the rotten bytes:
  // every CRC check — patrol and foreground — passes by construction.
  const ClusterCoordinator& coord = *run.stack->coordinator;
  std::uint64_t crc_failures = 0;
  for (std::uint32_t d = 0; d < coord.device_count(); ++d) {
    crc_failures += coord.scrub_report(d).crc_failures;
  }
  EXPECT_EQ(crc_failures, 0u);
  EXPECT_EQ(run.cluster.read_repairs, 0u);
  ASSERT_GT(run.cluster.bitrot_blocks_injected, 0u);

  // Only comparing logical digests across replicas finds it.
  ClusterCoordinator& mutable_coord = *run.stack->coordinator;
  const AntiEntropyReport round = mutable_coord.run_anti_entropy();
  EXPECT_GE(round.divergent_partitions, 1u);
  EXPECT_GE(round.divergent_leaves, round.divergent_partitions);
  EXPECT_GE(round.replicas_repaired, 1u);
  EXPECT_GT(round.bytes_repaired, 0u);
  EXPECT_TRUE(round.converged);

  // The next round is quiet: anti-entropy converged, not just patched.
  const AntiEntropyReport quiet = mutable_coord.run_anti_entropy();
  EXPECT_EQ(quiet.divergent_partitions, 0u);
  EXPECT_EQ(quiet.replicas_repaired, 0u);
  EXPECT_TRUE(quiet.converged);
  EXPECT_EQ(mutable_coord.report().antientropy_rounds, 2u);
}

TEST(ClusterCoordinatorTest, ScrubbedRotTimelineIsByteDeterministic) {
  ClusterParams params;
  params.pes = 2;
  params.threads = 1;
  auto profile = fault::FaultProfile::parse("bit-rot");
  params.device_fault = profile.value_or_raise();
  params.scrub.enabled = true;

  ClusterRun first = run_cluster(params);
  const AntiEntropyReport first_ae =
      first.stack->coordinator->run_anti_entropy();
  ClusterRun second = run_cluster(params);
  const AntiEntropyReport second_ae =
      second.stack->coordinator->run_anti_entropy();
  params.threads = 4;
  ClusterRun threaded = run_cluster(params);
  const AntiEntropyReport threaded_ae =
      threaded.stack->coordinator->run_anti_entropy();

  // Scrub pacing, rot injection and repair all live on the host
  // timeline: the whole integrity story replays byte-identically and is
  // invariant in the host thread count.
  expect_reports_equal(first.report, second.report);
  expect_reports_equal(first.report, threaded.report);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_EQ(first.metrics_json, threaded.metrics_json);
  for (const ClusterReport* cluster :
       {&second.cluster, &threaded.cluster}) {
    EXPECT_EQ(first.cluster.bitrot_blocks_injected,
              cluster->bitrot_blocks_injected);
    EXPECT_EQ(first.cluster.integrity_failures, cluster->integrity_failures);
    EXPECT_EQ(first.cluster.read_repairs, cluster->read_repairs);
    EXPECT_EQ(first.cluster.repairs, cluster->repairs);
    EXPECT_EQ(first.cluster.bytes_repaired, cluster->bytes_repaired);
  }
  for (const AntiEntropyReport* ae : {&second_ae, &threaded_ae}) {
    EXPECT_EQ(first_ae.divergent_partitions, ae->divergent_partitions);
    EXPECT_EQ(first_ae.divergent_leaves, ae->divergent_leaves);
    EXPECT_EQ(first_ae.replicas_repaired, ae->replicas_repaired);
    EXPECT_EQ(first_ae.converged, ae->converged);
  }
}

TEST(ClusterCoordinatorTest, UnrepairableRotRaisesTypedIntegrityError) {
  // R=1: the rotted replica is the only copy, so read-repair has no
  // healthy source and the query must fail typed, not return bad bytes.
  ClusterBuildConfig build;
  build.devices = 2;
  build.replication = 1;
  build.spares = 0;
  build.scale_divisor = 32768;
  build.mode = ndp::ExecMode::kSoftware;
  fault::FaultProfile& fault = build.device_fault;
  fault.device_bitrot_blocks = 2;
  fault.device_bitrot_device = 0;
  fault.device_bitrot_at_ns = 1;
  const auto stack = build_pubgraph_cluster(build);
  ClusterCoordinator& coord = *stack->coordinator;
  coord.advance_device_to(1'000'000);  // Past the rot instant.

  const std::uint64_t n = stack->generator.paper_count();
  const std::vector<ndp::KeyRange> ranges = {{kv::Key{1, 0}, kv::Key{n, 0}}};
  try {
    coord.multi_range_scan(ranges, kPredicates, nullptr);
    FAIL() << "a corrupt sole replica must raise kIntegrity, not serve rot";
  } catch (const Error& error) {
    EXPECT_EQ(error.kind(), ErrorKind::kIntegrity);
    EXPECT_EQ(exit_code(error.kind()), 20);
  }
}

TEST(ClusterCoordinatorTest, BuilderValidatesTopology) {
  ClusterBuildConfig build;
  build.devices = 2;
  build.replication = 3;  // R > N.
  EXPECT_THROW(build_pubgraph_cluster(build), Error);
}

}  // namespace
}  // namespace ndpgen::cluster
