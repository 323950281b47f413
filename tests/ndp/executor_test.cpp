#include "ndp/executor.hpp"

#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::ndp {
namespace {

// Shared scenario: a small publication graph (papers only), HW and SW
// executors over the PaperScan parser.
class ExecutorFixture : public ::testing::Test {
 protected:
  ExecutorFixture()
      : compiled_(framework_.compile(workload::pubgraph_spec_source())),
        generator_(workload::PubGraphConfig{.scale_divisor = 4096}),
        db_(cosmos_, db_config()) {
    loaded_ = workload::load_papers(db_, generator_);
    pe_index_ = framework_.instantiate(compiled_, "PaperScan", cosmos_);
  }

  kv::DBConfig db_config() {
    kv::DBConfig config;
    config.record_bytes = workload::PaperRecord::kBytes;
    config.extractor = workload::paper_key;
    return config;
  }

  HybridExecutor make_executor(ExecMode mode) {
    ExecutorConfig config;
    config.mode = mode;
    if (mode == ExecMode::kHardware) config.pe_indices = {pe_index_};
    config.result_key_extractor = workload::paper_result_key;
    const auto& artifacts = compiled_.get("PaperScan");
    return HybridExecutor(db_, artifacts.analyzed,
                          artifacts.design.operators, config);
  }

  core::Framework framework_;
  core::CompileResult compiled_;
  workload::PubGraphGenerator generator_;
  platform::CosmosPlatform cosmos_;
  kv::NKV db_{cosmos_, db_config()};
  std::uint64_t loaded_ = 0;
  std::size_t pe_index_ = 0;

 private:
};

TEST_F(ExecutorFixture, HwAndSwScanAgree) {
  const std::vector<FilterPredicate> predicate = {{"year", "lt", 1990}};
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto hw_stats = hw.scan(predicate);
  const auto sw_stats = sw.scan(predicate);
  EXPECT_EQ(hw_stats.results, sw_stats.results);
  EXPECT_EQ(hw_stats.tuples_scanned, sw_stats.tuples_scanned);
  EXPECT_EQ(hw_stats.tuples_scanned, loaded_);
  EXPECT_GT(hw_stats.results, 0u);
  EXPECT_LT(hw_stats.results, loaded_);
}

TEST_F(ExecutorFixture, ScanSelectivityMatchesGenerator) {
  const std::vector<FilterPredicate> predicate = {{"year", "lt", 1990}};
  auto sw = make_executor(ExecMode::kSoftware);
  const auto stats = sw.scan(predicate);
  const double measured =
      static_cast<double>(stats.results) / static_cast<double>(loaded_);
  EXPECT_NEAR(measured, generator_.year_selectivity(1990), 0.05);
}

TEST_F(ExecutorFixture, HwScanIsFasterThanSw) {
  const std::vector<FilterPredicate> predicate = {{"year", "lt", 1990}};
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto hw_stats = hw.scan(predicate);
  const auto sw_stats = sw.scan(predicate);
  EXPECT_LT(hw_stats.elapsed, sw_stats.elapsed);
}

TEST_F(ExecutorFixture, ScanCollectsTransformedRecords) {
  const std::vector<FilterPredicate> predicate = {{"year", "lt", 1950}};
  auto hw = make_executor(ExecMode::kHardware);
  std::vector<std::vector<std::uint8_t>> results;
  const auto stats = hw.scan(predicate, &results);
  EXPECT_EQ(results.size(), stats.results);
  for (const auto& record : results) {
    // PaperResult is 24 bytes; year (offset 8) must satisfy the predicate.
    ASSERT_EQ(record.size(), 24u);
    EXPECT_LT(support::get_u32(record, 8), 1950u);
  }
}

TEST_F(ExecutorFixture, GetFindsExistingPaper) {
  const kv::Key key{123, 0};
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto hw_stats = hw.get(key);
  const auto sw_stats = sw.get(key);
  EXPECT_TRUE(hw_stats.found);
  EXPECT_TRUE(sw_stats.found);
  EXPECT_EQ(hw_stats.record, sw_stats.record);
  EXPECT_EQ(support::get_u64(hw_stats.record, 0), 123u);
  EXPECT_GT(hw_stats.blocks_fetched, 0u);
}

TEST_F(ExecutorFixture, GetMissesAbsentKey) {
  auto sw = make_executor(ExecMode::kSoftware);
  const auto stats = sw.get(kv::Key{loaded_ + 10, 0});
  EXPECT_FALSE(stats.found);
}

TEST_F(ExecutorFixture, GetTimesAreComparableAcrossModes) {
  // Fig. 7(a): GET "does not profit greatly from hardware support".
  auto hw = make_executor(ExecMode::kHardware);
  auto sw = make_executor(ExecMode::kSoftware);
  const auto hw_stats = hw.get(kv::Key{500, 0});
  const auto sw_stats = sw.get(kv::Key{500, 0});
  ASSERT_TRUE(hw_stats.found);
  ASSERT_TRUE(sw_stats.found);
  const double ratio = static_cast<double>(hw_stats.elapsed) /
                       static_cast<double>(sw_stats.elapsed);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
}

TEST_F(ExecutorFixture, GetSeesMemtableFirst) {
  // Overwrite a paper in C0; GET must return the new version.
  workload::PaperRecord record = generator_.paper(41);  // id 42.
  record.year = 2099;
  db_.put(record.serialize());
  auto sw = make_executor(ExecMode::kSoftware);
  const auto stats = sw.get(kv::Key{42, 0});
  ASSERT_TRUE(stats.found);
  EXPECT_EQ(support::get_u32(stats.record, 8), 2099u);
}

TEST_F(ExecutorFixture, ScanDeduplicatesUpdatedKeys) {
  // Baseline scan before any updates.
  auto sw0 = make_executor(ExecMode::kSoftware);
  const auto before = sw0.scan({{"year", "lt", 1990}});

  // Update 100 papers so they all match, flush to C1: the old versions in
  // C2 still exist on flash, but the scan must count each key once.
  std::uint64_t already_matching = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    workload::PaperRecord record = generator_.paper(i);
    if (record.year < 1990) ++already_matching;
    record.year = 1900;
    db_.put(record.serialize());
  }
  db_.flush();
  auto sw = make_executor(ExecMode::kSoftware);
  const auto stats = sw.scan({{"year", "lt", 1990}});
  EXPECT_EQ(stats.tuples_scanned, loaded_ + 100);
  // Unique matching keys = previous matches + newly matching papers.
  EXPECT_EQ(stats.results, before.results + (100 - already_matching));
  // The superseded duplicates matched but were deduplicated away.
  EXPECT_EQ(stats.tuples_matched, before.tuples_matched + 100);
}

TEST_F(ExecutorFixture, ScanSuppressesDeletedKeys) {
  // Delete papers 1..50 (flushed as tombstones).
  for (std::uint64_t id = 1; id <= 50; ++id) db_.del(kv::Key{id, 0});
  db_.flush();
  auto sw = make_executor(ExecMode::kSoftware);
  std::vector<std::vector<std::uint8_t>> results;
  (void)sw.scan({{"id", "le", 60}}, &results);
  for (const auto& record : results) {
    EXPECT_GT(support::get_u64(record, 0), 50u);
  }
}

TEST_F(ExecutorFixture, HardwareNeedsPeIndices) {
  ExecutorConfig config;
  config.mode = ExecMode::kHardware;
  const auto& artifacts = compiled_.get("PaperScan");
  EXPECT_THROW(HybridExecutor(db_, artifacts.analyzed,
                              artifacts.design.operators, config),
               ndpgen::Error);
}

TEST_F(ExecutorFixture, HardwareRejectsTwoPeIndices) {
  // The shard count comes from num_pes alone; a second index would only
  // have added a shard of the first index's design.
  const std::size_t pe2 = framework_.instantiate(compiled_, "PaperScan",
                                                 cosmos_);
  ExecutorConfig config;
  config.mode = ExecMode::kHardware;
  config.pe_indices = {pe_index_, pe2};
  const auto& artifacts = compiled_.get("PaperScan");
  try {
    HybridExecutor(db_, artifacts.analyzed, artifacts.design.operators,
                   config);
    FAIL() << "two PE indices must be rejected";
  } catch (const ndpgen::Error& error) {
    EXPECT_EQ(error.kind(), ndpgen::ErrorKind::kInvalidArg);
  }
}

TEST_F(ExecutorFixture, MultiPeScanAgreesAndIsNotSlower) {
  ExecutorConfig config;
  config.mode = ExecMode::kHardware;
  config.num_pes = 2;
  config.pe_indices = {pe_index_};
  config.result_key_extractor = workload::paper_result_key;
  const auto& artifacts = compiled_.get("PaperScan");
  HybridExecutor multi(db_, artifacts.analyzed, artifacts.design.operators,
                       config);
  auto single = make_executor(ExecMode::kHardware);
  const auto multi_stats = multi.scan({{"year", "lt", 1990}});
  const auto single_stats = single.scan({{"year", "lt", 1990}});
  EXPECT_EQ(multi_stats.results, single_stats.results);
  EXPECT_LE(multi_stats.elapsed, single_stats.elapsed + single_stats.elapsed / 10);
}

}  // namespace
}  // namespace ndpgen::ndp
