// The shared block pipeline: every operation — scan, range, multi-range,
// aggregate and GET — reads through the same checked assembly, routing
// and fault accounting, and the scan merge reconciles tombstones by
// recency.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_profile.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "support/bytes.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::ndp {
namespace {

constexpr std::uint64_t kScale = 4096;

/// One platform + paper store + aggregation-capable PaperScan PE.
struct Store {
  Store(const core::Framework& framework, const core::CompileResult& compiled,
        const fault::FaultProfile& profile, bool auto_compact = true)
      : cosmos(make_config(profile)), db(cosmos, db_config(auto_compact)) {
    loaded = workload::load_papers(db, generator);
    pe = framework.instantiate(compiled, "PaperScan", cosmos);
  }

  static platform::CosmosConfig make_config(
      const fault::FaultProfile& profile) {
    platform::CosmosConfig config;
    config.fault = profile;
    return config;
  }

  static kv::DBConfig db_config(bool auto_compact) {
    kv::DBConfig config;
    config.record_bytes = workload::PaperRecord::kBytes;
    config.extractor = workload::paper_key;
    config.auto_compact = auto_compact;
    return config;
  }

  HybridExecutor executor(const core::CompileResult& compiled, ExecMode mode,
                          std::uint32_t pes) {
    ExecutorConfig config;
    config.mode = mode;
    config.num_pes = pes;
    if (mode == ExecMode::kHardware) config.pe_indices = {pe};
    config.result_key_extractor = workload::paper_result_key;
    const auto& artifacts = compiled.get("PaperScan");
    return HybridExecutor(db, artifacts.analyzed, artifacts.design.operators,
                          config);
  }

  /// Flips one byte of record 0 in the oldest table's first block on
  /// flash, leaving the index CRC stale (latent bit-rot). Returns that
  /// record's key.
  kv::Key rot_first_block() {
    const auto tables = db.version().recency_ordered();
    const kv::SSTable& table = *tables.back();
    auto& flash = cosmos.flash();
    const platform::FlashAddr addr =
        flash.delinearize(table.blocks.front().flash_pages.front());
    const auto page = flash.page_data(addr);
    std::vector<std::uint8_t> rotted(page.begin(), page.end());
    const kv::Key key = workload::paper_key(
        std::span<const std::uint8_t>(rotted).first(
            workload::PaperRecord::kBytes));
    rotted[100] ^= 0xFF;  // Inside record 0, clear of its key bytes.
    flash.write_page_immediate(addr, rotted);
    return key;
  }

  const workload::PubGraphGenerator generator{
      workload::PubGraphConfig{.scale_divisor = kScale}};
  platform::CosmosPlatform cosmos;
  kv::NKV db;
  std::uint64_t loaded = 0;
  std::size_t pe = 0;
};

struct Config {
  ExecMode mode;
  std::uint32_t pes;
};

constexpr Config kMatrix[] = {{ExecMode::kHardware, 1},
                              {ExecMode::kHardware, 4},
                              {ExecMode::kSoftware, 1},
                              {ExecMode::kSoftware, 4}};

std::string describe(const Config& config) {
  return std::string(to_string(config.mode)) + " pes=" +
         std::to_string(config.pes);
}

class BlockPipelineFixture : public ::testing::Test {
 protected:
  BlockPipelineFixture()
      : framework_(agg_options()),
        compiled_(framework_.compile(workload::pubgraph_spec_source())) {}

  static core::FrameworkOptions agg_options() {
    core::FrameworkOptions options;
    options.hw.enable_aggregation = true;
    return options;
  }

  static std::vector<FilterPredicate> predicate() {
    return {{"year", "lt", 1990}};
  }

  AggregateStats aggregate(Store& store, const Config& config) {
    return store.executor(compiled_, config.mode, config.pes)
        .aggregate(predicate(), hwgen::AggOp::kSum, "year");
  }

  core::Framework framework_;
  core::CompileResult compiled_;
};

TEST_F(BlockPipelineFixture, SilentCorruptionNeverReachesAggregate) {
  Store clean(framework_, compiled_, {});
  const auto reference =
      aggregate(clean, {ExecMode::kSoftware, 1});
  ASSERT_GT(reference.folded, 0u);
  EXPECT_EQ(reference.uncorrectable_blocks, 0u);

  fault::FaultProfile silent;
  silent.seed = 7;
  silent.silent_corruption_rate = 1.0;
  for (const Config& config : kMatrix) {
    SCOPED_TRACE(describe(config));
    Store faulted(framework_, compiled_, silent);
    const auto stats = aggregate(faulted, config);
    EXPECT_EQ(stats.raw_result, reference.raw_result);
    EXPECT_EQ(stats.folded, reference.folded);
    EXPECT_EQ(stats.uncorrectable_blocks, stats.blocks);
    EXPECT_EQ(stats.integrity_blocks, 0u);
    EXPECT_EQ(stats.blocks_degraded_to_software,
              config.mode == ExecMode::kHardware ? stats.blocks : 0u);
    // The recovery pass costs virtual time on every block.
    EXPECT_GT(stats.elapsed, aggregate(clean, config).elapsed);
  }
}

TEST_F(BlockPipelineFixture, PeHangsDegradeAggregateButKeepItsValue) {
  Store clean(framework_, compiled_, {});
  const auto reference = aggregate(clean, {ExecMode::kHardware, 1});
  fault::FaultProfile hangs;
  hangs.seed = 7;
  hangs.pe_fault_rate = 0.5;
  for (const std::uint32_t pes : {1u, 4u}) {
    Store faulted(framework_, compiled_, hangs);
    const auto stats = aggregate(faulted, {ExecMode::kHardware, pes});
    EXPECT_EQ(stats.raw_result, reference.raw_result) << "pes=" << pes;
    EXPECT_GT(stats.blocks_degraded_to_software, 0u) << "pes=" << pes;
  }
}

TEST_F(BlockPipelineFixture, RottenBlockIsFlaggedByAggregate) {
  for (const Config& config : kMatrix) {
    SCOPED_TRACE(describe(config));
    Store store(framework_, compiled_, {});
    store.rot_first_block();
    const auto stats = aggregate(store, config);
    EXPECT_EQ(stats.integrity_blocks, 1u);
    EXPECT_EQ(stats.uncorrectable_blocks, 1u);
  }
}

TEST_F(BlockPipelineFixture, RottenBlockIsFlaggedByGet) {
  for (const Config& config : kMatrix) {
    SCOPED_TRACE(describe(config));
    Store store(framework_, compiled_, {});
    const kv::Key key = store.rot_first_block();
    const auto stats =
        store.executor(compiled_, config.mode, config.pes).get(key);
    EXPECT_EQ(stats.blocks_fetched, 1u);
    EXPECT_EQ(stats.integrity_blocks, 1u);
    EXPECT_EQ(stats.uncorrectable_blocks, 1u);
  }
}

TEST_F(BlockPipelineFixture, CleanGetReportsNoFaults) {
  for (const Config& config : kMatrix) {
    SCOPED_TRACE(describe(config));
    Store store(framework_, compiled_, {});
    const auto stats =
        store.executor(compiled_, config.mode, config.pes).get({123, 0});
    ASSERT_TRUE(stats.found);
    EXPECT_EQ(stats.integrity_blocks, 0u);
    EXPECT_EQ(stats.uncorrectable_blocks, 0u);
    EXPECT_EQ(stats.blocks_degraded_to_software, 0u);
  }
}

TEST_F(BlockPipelineFixture, SoftwareGetReadsEachBlockOnce) {
  for (const ExecMode mode : {ExecMode::kSoftware, ExecMode::kHostClassic}) {
    Store store(framework_, compiled_, {});
    auto executor = store.executor(compiled_, mode, 1);
    const obs::MetricsRegistry& m = store.cosmos.observability().metrics;
    ASSERT_FALSE(m.contains("kv.sst.blocks_read"));  // Nothing read yet.
    std::uint64_t fetched = 0;
    for (std::uint64_t id = 1; id <= store.loaded; id += 97) {
      const auto stats = executor.get({id, 0});
      ASSERT_TRUE(stats.found) << id;
      fetched += stats.blocks_fetched;
    }
    EXPECT_GT(fetched, 0u);
    EXPECT_EQ(m.counter_value("kv.sst.blocks_read"), fetched)
        << to_string(mode);
  }
}

TEST_F(BlockPipelineFixture, TombstoneHidesOnlyOlderVersions) {
  Store store(framework_, compiled_, {}, /*auto_compact=*/false);
  // put k, del k, flush, put k, flush: k's tombstone sits in an OLDER
  // table than its re-written value. Key 9 is deleted in the newest table.
  const auto paper = store.generator.paper(6).serialize();
  const kv::Key rewritten = workload::paper_key(paper);
  const kv::Key deleted{9, 0};
  ASSERT_EQ(rewritten, (kv::Key{7, 0}));
  store.db.put(paper);
  store.db.del(rewritten);
  store.db.flush();
  store.db.put(paper);
  store.db.del(deleted);
  store.db.flush();
  ASSERT_GE(store.db.version().recency_ordered().size(), 3u);

  auto ids = [](const std::vector<std::vector<std::uint8_t>>& records) {
    std::vector<std::uint64_t> out;
    for (const auto& record : records) {
      out.push_back(support::get_u64(record, 0));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const ExecMode mode : {ExecMode::kHardware, ExecMode::kSoftware}) {
    for (const std::uint32_t pes : {1u, 4u}) {
      SCOPED_TRACE(describe({mode, pes}));
      auto executor = store.executor(compiled_, mode, pes);
      std::vector<std::vector<std::uint8_t>> scan, range, multi;
      const auto stats = executor.scan({}, &scan);
      executor.range_scan({1, 0}, {20, 0}, {}, &range);
      executor.multi_range_scan({{{1, 0}, {8, 0}}, {{9, 0}, {20, 0}}}, {},
                                &multi);
      EXPECT_EQ(stats.results, store.loaded - 1);
      std::vector<std::uint64_t> expected;
      for (std::uint64_t id = 1; id <= 20; ++id) {
        if (id != 9) expected.push_back(id);
      }
      EXPECT_EQ(ids(range), expected);
      EXPECT_EQ(ids(multi), expected);
      const auto all = ids(scan);
      EXPECT_TRUE(std::binary_search(all.begin(), all.end(), 7u));
      EXPECT_FALSE(std::binary_search(all.begin(), all.end(), 9u));
    }
  }
}

}  // namespace
}  // namespace ndpgen::ndp
