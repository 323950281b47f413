// End-to-end tests of the request profiler wired through the host query
// service: exact phase attribution (phases sum to latency, report totals
// sum over completions), deterministic attribution artifacts across host
// thread counts, and causally-consistent request flows in the trace.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "core/framework.hpp"
#include "host/service.hpp"
#include "ndp/executor.hpp"
#include "obs/request_trace.hpp"
#include "obs/trace.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::host {
namespace {

struct ProfileRunParams {
  std::uint32_t pes = 1;
  std::uint32_t threads = 0;
  std::uint64_t requests = 24;
  std::uint32_t tenants = 2;
  std::uint64_t seed = 20210521;
};

struct ProfileRunResult {
  ServiceReport report;
  std::string attribution_json;
  std::string profile_report;
  std::string trace_json;
};

/// One isolated service run with profiler and trace sink attached.
ProfileRunResult run_profiled(const ProfileRunParams& params) {
  platform::CosmosPlatform cosmos;
  obs::TraceSink trace;
  obs::RequestProfiler profiler;
  cosmos.observability().trace = &trace;
  cosmos.observability().profiler = &profiler;

  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
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
  service_config.result_key = workload::paper_result_key;

  LoadConfig load_config;
  load_config.tenants = params.tenants;
  load_config.requests = params.requests;
  load_config.arrival_rate = 2000;
  load_config.key_space = generator.paper_count();
  load_config.seed = params.seed;

  SingleDeviceTarget device(executor, cosmos);
  QueryService service(device, service_config);
  LoadGenerator load(load_config);
  ProfileRunResult out;
  out.report = service.run(load);
  std::ostringstream attribution;
  profiler.write_json(attribution);
  out.attribution_json = attribution.str();
  std::ostringstream report;
  profiler.write_report(report);
  out.profile_report = report.str();
  out.trace_json = trace.to_json();
  return out;
}

TEST(RequestProfileTest, EveryCompletionPhaseSumsToItsLatency) {
  // The profiler itself CHECKs phases.total() == latency on record(), so
  // a completed run is already evidence; assert the aggregate identity
  // here: report-level phases sum to the summed per-request latency.
  platform::CosmosPlatform cosmos;
  obs::RequestProfiler profiler;
  cosmos.observability().profiler = &profiler;

  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
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
  exec_config.num_pes = 2;
  exec_config.result_key_extractor = workload::paper_result_key;
  exec_config.pe_indices = {
      framework.instantiate(compiled, "PaperScan", cosmos)};
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, exec_config);

  ServiceConfig service_config;
  service_config.tenants = 2;
  service_config.result_key = workload::paper_result_key;
  LoadConfig load_config;
  load_config.tenants = 2;
  load_config.requests = 32;
  load_config.arrival_rate = 2000;
  load_config.key_space = generator.paper_count();
  load_config.seed = 7;

  SingleDeviceTarget device(executor, cosmos);
  QueryService service(device, service_config);
  LoadGenerator load(load_config);
  const ServiceReport report = service.run(load);

  ASSERT_EQ(profiler.size(), report.completed);
  std::uint64_t latency_sum = 0;
  for (const obs::RequestProfile& r : profiler.requests()) {
    EXPECT_EQ(r.phases.total(), r.latency_ns()) << "request " << r.id;
    latency_sum += r.latency_ns();
  }
  EXPECT_EQ(report.phases.total(), latency_sum);
  EXPECT_EQ(profiler.totals().total(), latency_sum);

  // Per-tenant report phases partition the global phases.
  obs::PhaseBreakdown tenant_sum;
  for (const TenantReport& tenant : report.tenants) {
    tenant_sum += tenant.phases;
  }
  EXPECT_EQ(tenant_sum.total(), report.phases.total());
}

TEST(RequestProfileTest, AttributionIsByteIdenticalAcrossHostThreads) {
  ProfileRunParams single;
  single.pes = 2;
  single.threads = 1;
  ProfileRunParams pooled = single;
  pooled.threads = 4;
  const ProfileRunResult a = run_profiled(single);
  const ProfileRunResult b = run_profiled(pooled);
  EXPECT_EQ(a.report.completed, b.report.completed);
  EXPECT_EQ(a.attribution_json, b.attribution_json);
  EXPECT_EQ(a.profile_report, b.profile_report);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(RequestProfileTest, ReRunIsByteIdentical) {
  const ProfileRunResult a = run_profiled(ProfileRunParams{});
  const ProfileRunResult b = run_profiled(ProfileRunParams{});
  EXPECT_EQ(a.attribution_json, b.attribution_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(RequestProfileTest, TraceCarriesOneFlowPerCompletedRequest) {
  const ProfileRunResult run = run_profiled(ProfileRunParams{});
  ASSERT_GT(run.report.completed, 0u);

  // Count flow begin ("ph":"s") and end ("ph":"f") events per flow id by
  // scanning the rendered JSON; each completed request contributes
  // exactly one of each, under its deterministic id (request id + 1).
  std::map<std::uint64_t, std::pair<int, int>> flows;
  const std::string& json = run.trace_json;
  for (const char phase : {'s', 'f'}) {
    const std::string needle =
        std::string("\"ph\":\"") + phase + "\",\"bp\":\"e\",\"id\":";
    const std::string plain = std::string("\"ph\":\"") + phase + "\",\"id\":";
    for (std::size_t pos = 0; (pos = json.find(plain, pos)) != std::string::npos;
         pos += plain.size()) {
      const std::uint64_t id = std::strtoull(
          json.c_str() + pos + plain.size(), nullptr, 10);
      (phase == 's' ? flows[id].first : flows[id].second)++;
    }
    for (std::size_t pos = 0;
         (pos = json.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
      const std::uint64_t id = std::strtoull(
          json.c_str() + pos + needle.size(), nullptr, 10);
      (phase == 's' ? flows[id].first : flows[id].second)++;
    }
  }
  EXPECT_EQ(flows.size(), run.report.completed);
  for (const auto& [id, counts] : flows) {
    EXPECT_EQ(counts.first, 1) << "flow " << id;
    EXPECT_EQ(counts.second, 1) << "flow " << id;
    EXPECT_GE(id, 1u);  // Minted ids are request id + 1, never 0.
  }
}

}  // namespace
}  // namespace ndpgen::host
