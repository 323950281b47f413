// End-to-end tests of the host query service: admission, retry/backoff,
// WRR fairness, coalescing, determinism, and typed error propagation.
#include "host/service.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_profile.hpp"
#include "ndp/executor.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::host {
namespace {

struct RunParams {
  std::uint32_t tenants = 2;
  std::uint32_t queue_depth = 8;
  std::vector<std::uint32_t> weights;
  std::uint32_t batch_limit = 8;
  std::uint32_t max_retries = 8;
  std::uint64_t requests = 48;
  std::uint64_t arrival_rate = 2000;  ///< 0 with clients > 0 = closed loop.
  std::uint32_t closed_loop_clients = 0;
  std::uint32_t pes = 1;
  std::uint32_t threads = 0;
  std::uint64_t seed = 20210521;
  fault::FaultProfile fault;
};

struct RunResult {
  ServiceReport report;
  std::string metrics_json;
};

/// One fully isolated service run: fresh platform, store, executor.
RunResult run_service(const RunParams& params) {
  platform::CosmosConfig cosmos_config;
  cosmos_config.fault = params.fault;
  platform::CosmosPlatform cosmos(cosmos_config);
  const core::Framework framework;
  const auto compiled =
      framework.compile(workload::pubgraph_spec_source());
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 16384});
  kv::DBConfig db_config;
  db_config.record_bytes = workload::PaperRecord::kBytes;
  db_config.extractor = workload::paper_key;
  kv::NKV db(cosmos, db_config);
  workload::load_papers(db, generator);

  const auto& artifacts = compiled.get("PaperScan");
  ndp::ExecutorConfig exec_config;
  exec_config.mode = ndp::ExecMode::kHardware;
  exec_config.num_pes = params.pes;
  exec_config.pe_threads = params.threads;
  exec_config.result_key_extractor = workload::paper_result_key;
  exec_config.pe_indices = {
      framework.instantiate(compiled, "PaperScan", cosmos)};
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, exec_config);

  ServiceConfig service_config;
  service_config.tenants = params.tenants;
  service_config.queue_depth = params.queue_depth;
  service_config.weights = params.weights;
  service_config.batch_limit = params.batch_limit;
  service_config.max_retries = params.max_retries;
  service_config.result_key = workload::paper_result_key;

  LoadConfig load_config;
  load_config.tenants = params.tenants;
  load_config.requests = params.requests;
  load_config.arrival_rate = params.arrival_rate;
  load_config.closed_loop_clients = params.closed_loop_clients;
  load_config.key_space = generator.paper_count();
  load_config.seed = params.seed;

  SingleDeviceTarget device(executor, cosmos);
  QueryService service(device, service_config);
  LoadGenerator load(load_config);
  RunResult out;
  out.report = service.run(load);
  cosmos.publish_metrics();
  out.metrics_json = cosmos.observability().metrics.dump_json();
  return out;
}

void expect_reports_equal(const ServiceReport& a, const ServiceReport& b) {
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.rejected_busy, b.rejected_busy);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.coalesced, b.coalesced);
  EXPECT_EQ(a.makespan_ns, b.makespan_ns);
  EXPECT_EQ(a.device_busy_ns, b.device_busy_ns);
  EXPECT_EQ(a.p50_ns, b.p50_ns);
  EXPECT_EQ(a.p95_ns, b.p95_ns);
  EXPECT_EQ(a.p99_ns, b.p99_ns);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed) << t;
    EXPECT_EQ(a.tenants[t].results, b.tenants[t].results) << t;
    EXPECT_EQ(a.tenants[t].p99_ns, b.tenants[t].p99_ns) << t;
  }
}

TEST(QueryServiceTest, OpenLoopCompletesEveryRequest) {
  const auto run = run_service(RunParams{});
  const auto& report = run.report;
  EXPECT_EQ(report.submitted, 48u);
  EXPECT_EQ(report.completed, 48u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_GT(report.results, 0u);
  EXPECT_GE(report.batches, 1u);
  // Every request either opened an offload or rode an earlier head's.
  EXPECT_EQ(report.batches + report.coalesced, report.completed);
  EXPECT_GT(report.makespan_ns, 0u);
  EXPECT_GT(report.throughput_rps, 0.0);
  EXPECT_LE(report.p50_ns, report.p95_ns);
  EXPECT_LE(report.p95_ns, report.p99_ns);
  EXPECT_GT(report.utilization(), 0.0);
  std::uint64_t tenant_completed = 0;
  std::uint64_t tenant_results = 0;
  for (const auto& tenant : report.tenants) {
    tenant_completed += tenant.completed;
    tenant_results += tenant.results;
  }
  EXPECT_EQ(tenant_completed, report.completed);
  EXPECT_EQ(tenant_results, report.results);
}

TEST(QueryServiceTest, AdmissionControlDropsWithoutRetryBudget) {
  RunParams params;
  params.queue_depth = 1;
  params.max_retries = 0;
  params.arrival_rate = 50000;  // Far past the knee.
  params.requests = 32;
  const auto run = run_service(params);
  const auto& report = run.report;
  EXPECT_EQ(report.submitted, 32u);
  EXPECT_GT(report.rejected_busy, 0u);
  EXPECT_GT(report.dropped, 0u);
  EXPECT_EQ(report.retries, 0u);
  // kBusy is accounted, never silently swallowed: every submission ends
  // as exactly one completion or one drop.
  EXPECT_EQ(report.completed + report.dropped, report.submitted);
  // And the obs layer carries the same story.
  EXPECT_NE(run.metrics_json.find("\"host.dropped\""), std::string::npos);
  EXPECT_NE(run.metrics_json.find("\"host.rejected_busy\""),
            std::string::npos);
}

TEST(QueryServiceTest, RetryBackoffEventuallyAdmits) {
  RunParams params;
  params.tenants = 1;
  params.queue_depth = 4;
  params.max_retries = 16;
  params.requests = 32;
  params.closed_loop_clients = 8;  // 8 clients vs SQ depth 4: must retry.
  const auto run = run_service(params);
  const auto& report = run.report;
  EXPECT_GT(report.rejected_busy, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.completed, 32u);
}

TEST(QueryServiceTest, FixedSeedIsByteDeterministic) {
  RunParams params;
  params.requests = 40;
  const auto first = run_service(params);
  const auto second = run_service(params);
  expect_reports_equal(first.report, second.report);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
}

TEST(QueryServiceTest, ThreadCountNeverChangesResults) {
  RunParams params;
  params.requests = 40;
  params.pes = 2;
  params.threads = 1;
  const auto serial = run_service(params);
  params.threads = 4;
  const auto threaded = run_service(params);
  expect_reports_equal(serial.report, threaded.report);
  EXPECT_EQ(serial.metrics_json, threaded.metrics_json);
}

TEST(QueryServiceTest, BatchingCoalescesAndLiftsThroughput) {
  RunParams params;
  params.requests = 64;
  params.closed_loop_clients = 16;
  params.arrival_rate = 0;
  const auto batched = run_service(params);
  params.batch_limit = 1;
  const auto unbatched = run_service(params);
  EXPECT_GT(batched.report.coalesced, 0u);
  EXPECT_GT(batched.report.max_batch, 1u);
  EXPECT_LT(batched.report.batches, unbatched.report.batches);
  EXPECT_GT(batched.report.throughput_rps,
            unbatched.report.throughput_rps);
  EXPECT_EQ(unbatched.report.coalesced, 0u);
  EXPECT_EQ(unbatched.report.max_batch, 1u);
}

TEST(QueryServiceTest, WeightedArbitrationFavorsHeavyTenant) {
  RunParams params;
  params.tenants = 2;
  params.weights = {3, 1};
  params.queue_depth = 4;
  params.requests = 96;
  params.closed_loop_clients = 8;  // 4 clients per tenant, saturating.
  params.arrival_rate = 0;
  // One request per grant: with batching a single grant drains the whole
  // SQ and the work-conserving arbiter just alternates, hiding the ratio.
  params.batch_limit = 1;
  const auto run = run_service(params);
  const auto& report = run.report;
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_GT(report.tenants[1].completed, 0u);  // Never starved.
  // A closed loop completes every request regardless of weights; the 3:1
  // grant ratio instead shows up as service differentiation — the light
  // tenant's requests sit in their SQ through three heavy-tenant grants
  // per rotation, so its median latency is materially worse.
  EXPECT_GE(report.tenants[1].p50_ns,
            report.tenants[0].p50_ns + report.tenants[0].p50_ns / 2);
  EXPECT_GE(report.tenants[1].p99_ns, report.tenants[0].p99_ns);
}

TEST(QueryServiceTest, MidRecoveryStorageErrorPropagates) {
  // Crash a durable store mid-load, then poke the service while recover()
  // is in flight: the executor's typed kStorage refusal must unwind
  // through QueryService::run, not be swallowed as a busy/drop.
  platform::CosmosConfig cosmos_config;
  cosmos_config.crash.crash_at_step = 60;
  platform::CosmosPlatform platform(cosmos_config);
  kv::DBConfig db_config;
  db_config.record_bytes = workload::PaperRecord::kBytes;
  db_config.extractor = workload::paper_key;
  db_config.memtable_bytes = 2 * 1024;
  db_config.durability.enabled = true;
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 65536});
  {
    kv::NKV db(platform, db_config);
    for (std::uint64_t i = 0; i < generator.paper_count() &&
                              !platform.crash_scheduler().crashed();
         ++i) {
      db.put(generator.paper(i).serialize());
    }
  }
  ASSERT_TRUE(platform.crash_scheduler().crashed());
  platform.flash().set_crash_scheduler(nullptr);

  kv::NKV recovered(platform, db_config);
  bool probed = false;
  kv::RecoveryOptions options;
  options.mid_recovery_probe = [&] {
    ASSERT_TRUE(recovered.recovering());
    ndp::ExecutorConfig exec_config;
    exec_config.mode = ndp::ExecMode::kSoftware;
    exec_config.result_key_extractor = workload::paper_result_key;
    const core::Framework framework;
    const auto compiled =
        framework.compile(workload::pubgraph_spec_source());
    const auto& artifacts = compiled.get("PaperScan");
    ndp::HybridExecutor executor(recovered, artifacts.analyzed,
                                 artifacts.design.operators, exec_config);
    ServiceConfig service_config;
    service_config.tenants = 1;
    service_config.result_key = workload::paper_result_key;
    LoadConfig load_config;
    load_config.tenants = 1;
    load_config.requests = 1;
    load_config.key_space = generator.paper_count();
    SingleDeviceTarget device(executor, platform);
    QueryService service(device, service_config);
    LoadGenerator load(load_config);
    try {
      service.run(load);
      FAIL() << "service must surface the mid-recovery refusal";
    } catch (const Error& error) {
      EXPECT_EQ(error.kind(), ErrorKind::kStorage);
    }
    probed = true;
  };
  (void)recovered.recover(options);
  EXPECT_TRUE(probed);
  EXPECT_FALSE(recovered.recovering());
}

TEST(QueryServiceTest, DegradedMediaRunStillCompletes) {
  RunParams params;
  params.requests = 24;
  params.arrival_rate = 1000;
  auto profile = fault::FaultProfile::parse("aged");
  params.fault = profile.value_or_raise();
  const auto run = run_service(params);
  EXPECT_EQ(run.report.completed, 24u);
  EXPECT_EQ(run.report.dropped, 0u);
}

TEST(QueryServiceTest, ValidatesConfiguration) {
  platform::CosmosPlatform cosmos;
  const core::Framework framework;
  const auto compiled =
      framework.compile(workload::pubgraph_spec_source());
  const auto& artifacts = compiled.get("PaperScan");
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 65536});
  kv::DBConfig db_config;
  db_config.record_bytes = workload::PaperRecord::kBytes;
  db_config.extractor = workload::paper_key;
  kv::NKV db(cosmos, db_config);
  workload::load_papers(db, generator);
  ndp::ExecutorConfig exec_config;
  exec_config.mode = ndp::ExecMode::kSoftware;
  exec_config.result_key_extractor = workload::paper_result_key;
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, exec_config);
  SingleDeviceTarget device(executor, cosmos);

  ServiceConfig missing_key;
  missing_key.tenants = 1;
  EXPECT_THROW(QueryService(device, missing_key), Error);

  ServiceConfig bad_weights;
  bad_weights.tenants = 2;
  bad_weights.weights = {1};  // One weight for two tenants.
  bad_weights.result_key = workload::paper_result_key;
  EXPECT_THROW(QueryService(device, bad_weights), Error);

  // Tenant mismatch between load and service.
  ServiceConfig ok;
  ok.tenants = 2;
  ok.result_key = workload::paper_result_key;
  QueryService service(device, ok);
  LoadConfig load_config;
  load_config.tenants = 3;
  load_config.requests = 1;
  load_config.key_space = 10;
  LoadGenerator load(load_config);
  EXPECT_THROW(service.run(load), Error);
}

}  // namespace
}  // namespace ndpgen::host
