// Executor-level tests of the aggregation extension and the classical
// host path.
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "ndp/executor.hpp"
#include "support/bytes.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::ndp {
namespace {

class AggExecutorFixture : public ::testing::Test {
 protected:
  AggExecutorFixture()
      : framework_(agg_options()),
        compiled_(framework_.compile(workload::pubgraph_spec_source())),
        generator_(workload::PubGraphConfig{.scale_divisor = 8192}),
        db_(cosmos_, db_config()) {
    loaded_ = workload::load_papers(db_, generator_);
    cosmos_.attach_pe(compiled_.get("PaperScan").design);
  }

  static core::FrameworkOptions agg_options() {
    core::FrameworkOptions options;
    options.hw.enable_aggregation = true;
    return options;
  }

  static kv::DBConfig db_config() {
    kv::DBConfig config;
    config.record_bytes = workload::PaperRecord::kBytes;
    config.extractor = workload::paper_key;
    return config;
  }

  HybridExecutor make_executor(ExecMode mode) {
    ExecutorConfig config;
    config.mode = mode;
    if (mode == ExecMode::kHardware) config.pe_indices = {0};
    config.result_key_extractor = workload::paper_result_key;
    const auto& artifacts = compiled_.get("PaperScan");
    return HybridExecutor(db_, artifacts.analyzed,
                          artifacts.design.operators, config);
  }

  /// Reference aggregate straight from the generator.
  template <typename Fold>
  std::uint64_t reference(std::uint32_t year_cutoff, Fold fold,
                          std::uint64_t init) const {
    std::uint64_t acc = init;
    for (std::uint64_t i = 0; i < loaded_; ++i) {
      const auto paper = generator_.paper(i);
      if (paper.year < year_cutoff) acc = fold(acc, paper);
    }
    return acc;
  }

  core::Framework framework_;
  core::CompileResult compiled_;
  workload::PubGraphGenerator generator_;
  platform::CosmosPlatform cosmos_;
  kv::NKV db_{cosmos_, db_config()};
  std::uint64_t loaded_ = 0;
};

TEST_F(AggExecutorFixture, CountMatchesReference) {
  const auto expected = reference(
      1990, [](std::uint64_t acc, const workload::PaperRecord&) {
        return acc + 1;
      },
      0);
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto hw_stats =
      hw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount, "year");
  const auto sw_stats =
      sw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount, "year");
  EXPECT_EQ(hw_stats.raw_result, expected);
  EXPECT_EQ(sw_stats.raw_result, expected);
  EXPECT_EQ(hw_stats.folded, expected);
}

TEST_F(AggExecutorFixture, SumMatchesReference) {
  const auto expected = reference(
      1990,
      [](std::uint64_t acc, const workload::PaperRecord& paper) {
        return acc + paper.n_cited;
      },
      0);
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  EXPECT_EQ(hw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kSum,
                         "n_cited")
                .raw_result,
            expected);
  EXPECT_EQ(sw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kSum,
                         "n_cited")
                .raw_result,
            expected);
}

TEST_F(AggExecutorFixture, MinMaxMatchReference) {
  auto hw = make_executor(ExecMode::kHardware);
  const auto min_expected = reference(
      2100,
      [](std::uint64_t acc, const workload::PaperRecord& paper) {
        return std::min<std::uint64_t>(acc, paper.year);
      },
      ~std::uint64_t{0});
  const auto max_expected = reference(
      2100,
      [](std::uint64_t acc, const workload::PaperRecord& paper) {
        return std::max<std::uint64_t>(acc, paper.year);
      },
      0);
  EXPECT_EQ(hw.aggregate({}, hwgen::AggOp::kMin, "year").raw_result,
            min_expected);
  EXPECT_EQ(hw.aggregate({}, hwgen::AggOp::kMax, "year").raw_result,
            max_expected);
}

TEST_F(AggExecutorFixture, OnlyRegistersCrossTheLink) {
  auto hw = make_executor(ExecMode::kHardware);
  const auto stats =
      hw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount, "year");
  EXPECT_EQ(stats.result_bytes, 16u);
}

TEST_F(AggExecutorFixture, ScanAfterAggregateResetsUnit) {
  auto hw = make_executor(ExecMode::kHardware);
  (void)hw.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount, "year");
  // A scan on the same PE must pass tuples through again.
  const auto scan_stats = hw.scan({{"year", "lt", 1990}});
  EXPECT_GT(scan_stats.results, 0u);
}

TEST_F(AggExecutorFixture, RejectsBadInputs) {
  auto hw = make_executor(ExecMode::kHardware);
  EXPECT_THROW(hw.aggregate({}, hwgen::AggOp::kNone, "year"), ndpgen::Error);
  EXPECT_THROW(hw.aggregate({}, hwgen::AggOp::kSum, "title_postfix"),
               ndpgen::Error);
  EXPECT_THROW(hw.aggregate({}, hwgen::AggOp::kSum, "missing"),
               ndpgen::Error);
}

TEST_F(AggExecutorFixture, MultiPeAggregateAgrees) {
  ExecutorConfig config;
  config.mode = ExecMode::kHardware;
  config.num_pes = 2;
  config.pe_indices = {0};
  const auto& artifacts = compiled_.get("PaperScan");
  HybridExecutor multi(db_, artifacts.analyzed, artifacts.design.operators,
                       config);
  auto single = make_executor(ExecMode::kHardware);
  const auto multi_stats =
      multi.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kSum, "n_cited");
  const auto single_stats =
      single.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kSum,
                       "n_cited");
  EXPECT_EQ(multi_stats.raw_result, single_stats.raw_result);
  EXPECT_EQ(multi_stats.folded, single_stats.folded);
  EXPECT_LE(multi_stats.elapsed,
            single_stats.elapsed + single_stats.elapsed / 10);
}

// --- Classical host path -------------------------------------------------

TEST_F(AggExecutorFixture, HostClassicScanAgreesAndIsSlower) {
  auto host = make_executor(ExecMode::kHostClassic);
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto host_stats = host.scan({{"year", "lt", 1990}});
  const auto hw_stats = hw.scan({{"year", "lt", 1990}});
  const auto sw_stats = sw.scan({{"year", "lt", 1990}});
  EXPECT_EQ(host_stats.results, hw_stats.results);
  EXPECT_EQ(host_stats.results, sw_stats.results);
  // The paper's premise: NDP avoids the I/O bottleneck.
  EXPECT_GT(host_stats.elapsed, hw_stats.elapsed);
  EXPECT_GT(host_stats.elapsed, sw_stats.elapsed);
}

TEST_F(AggExecutorFixture, HostClassicGetAgrees) {
  auto host = make_executor(ExecMode::kHostClassic);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto host_stats = host.get(kv::Key{77, 0});
  const auto sw_stats = sw.get(kv::Key{77, 0});
  ASSERT_TRUE(host_stats.found);
  ASSERT_TRUE(sw_stats.found);
  EXPECT_EQ(host_stats.record, sw_stats.record);
  EXPECT_GT(host_stats.elapsed, sw_stats.elapsed);
}

}  // namespace
}  // namespace ndpgen::ndp
