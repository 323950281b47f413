// Exact-vs-fast simulation equivalence at the executor level.
//
// The load-bearing acceptance of the event-driven kernel: for every
// dataset, shard count and fault profile, SimMode::kFast must produce
// byte-identical results, stats and trace bytes to SimMode::kExact —
// fast-forwarding buys wall-clock time only, never visibility.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_profile.hpp"
#include "hwsim/kernel.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "obs/trace.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::ndp {
namespace {

constexpr std::uint64_t kScale = 2048;

struct RunOutput {
  std::vector<std::vector<std::uint8_t>> results;
  ScanStats stats;
  std::string trace_json;
};

class SimModeEquivalenceFixture : public ::testing::Test {
 protected:
  SimModeEquivalenceFixture()
      : compiled_(framework_.compile(workload::pubgraph_spec_source())) {}

  static kv::DBConfig db_config() {
    kv::DBConfig config;
    config.record_bytes = workload::PaperRecord::kBytes;
    config.extractor = workload::paper_key;
    return config;
  }

  RunOutput run(hwsim::SimMode sim_mode, std::uint32_t pes,
                const fault::FaultProfile& profile = {}) {
    platform::CosmosConfig cosmos_config;
    cosmos_config.fault = profile;
    platform::CosmosPlatform cosmos(cosmos_config);
    obs::TraceSink sink;
    cosmos.observability().trace = &sink;
    kv::NKV db(cosmos, db_config());
    const workload::PubGraphGenerator generator(
        workload::PubGraphConfig{.scale_divisor = kScale});
    workload::load_papers(db, generator);

    ExecutorConfig config;
    config.mode = ExecMode::kHardware;
    config.num_pes = pes;
    config.sim_mode = sim_mode;
    config.result_key_extractor = workload::paper_result_key;
    config.pe_indices = {
        framework_.instantiate(compiled_, "PaperScan", cosmos)};
    const auto& artifacts = compiled_.get("PaperScan");
    HybridExecutor executor(db, artifacts.analyzed,
                            artifacts.design.operators, config);
    RunOutput out;
    out.stats = executor.scan({{"year", "lt", 1990}}, &out.results);
    std::ostringstream trace;
    sink.write_json(trace);
    out.trace_json = trace.str();
    return out;
  }

  static void expect_identical(const RunOutput& exact,
                               const RunOutput& fast) {
    EXPECT_EQ(exact.results, fast.results);
    EXPECT_EQ(exact.trace_json, fast.trace_json);
    EXPECT_EQ(exact.stats.blocks, fast.stats.blocks);
    EXPECT_EQ(exact.stats.tuples_scanned, fast.stats.tuples_scanned);
    EXPECT_EQ(exact.stats.tuples_matched, fast.stats.tuples_matched);
    EXPECT_EQ(exact.stats.results, fast.stats.results);
    EXPECT_EQ(exact.stats.elapsed, fast.stats.elapsed);
    EXPECT_EQ(exact.stats.flash_done, fast.stats.flash_done);
    EXPECT_EQ(exact.stats.pe_phase_cycles, fast.stats.pe_phase_cycles);
    EXPECT_EQ(exact.stats.phases.total(), fast.stats.phases.total());
    EXPECT_EQ(exact.stats.blocks_retried, fast.stats.blocks_retried);
    EXPECT_EQ(exact.stats.blocks_degraded_to_software,
              fast.stats.blocks_degraded_to_software);
    EXPECT_EQ(exact.stats.uncorrectable_blocks,
              fast.stats.uncorrectable_blocks);
  }

  core::Framework framework_;
  core::CompileResult compiled_;
};

TEST_F(SimModeEquivalenceFixture, SinglePeScanIsByteIdentical) {
  expect_identical(run(hwsim::SimMode::kExact, 1),
                   run(hwsim::SimMode::kFast, 1));
}

TEST_F(SimModeEquivalenceFixture, ShardedScanIsByteIdentical) {
  expect_identical(run(hwsim::SimMode::kExact, 4),
                   run(hwsim::SimMode::kFast, 4));
}

TEST_F(SimModeEquivalenceFixture, FaultedScanIsByteIdentical) {
  // Faults force structural-event boundaries (retries, PE hangs caught by
  // the watchdog, firmware degradation to software): the fast kernel must
  // drop back to exact replay at each and still match byte for byte.
  auto parsed = fault::FaultProfile::parse(
      "seed=11,read_ber=4e-4,silent_rate=0.01,pe_fault_rate=0.2");
  const fault::FaultProfile profile = std::move(parsed).value();
  expect_identical(run(hwsim::SimMode::kExact, 2, profile),
                   run(hwsim::SimMode::kFast, 2, profile));
}

}  // namespace
}  // namespace ndpgen::ndp
