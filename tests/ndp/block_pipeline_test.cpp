// The shared block pipeline: every operation — scan, range, multi-range,
// aggregate and GET — reads through the same checked assembly, routing
// and fault accounting, and the scan merge reconciles tombstones by
// recency.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
  /// `records_per_sst` 0 keeps load_papers' table size.
  Store(const core::Framework& framework, const core::CompileResult& compiled,
        const fault::FaultProfile& profile, bool auto_compact = true,
        std::uint64_t records_per_sst = 0)
      : cosmos(make_config(profile)), db(cosmos, db_config(auto_compact)) {
    loaded = records_per_sst == 0
                 ? workload::load_papers(db, generator)
                 : workload::load_papers(db, generator, 2, records_per_sst);
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

TEST_F(BlockPipelineFixture, OverlapAwareDedupMatchesMapModel) {
  // Bulk-loaded C2 tables never overlap, so their results skip the dedup
  // set; the C1 tables written below overlap each other and, through one
  // tombstone, the C2 range. Every scan flavour must still equal a
  // std::map model of the store.
  Store store(framework_, compiled_, {}, /*auto_compact=*/false,
              /*records_per_sst=*/255);
  ASSERT_GE(store.db.version().recency_ordered().size(), 3u);
  std::map<std::uint64_t, std::vector<std::uint8_t>> model;
  for (std::uint64_t i = 0; i < store.loaded; ++i) {
    const auto record = store.generator.paper(i).serialize();
    model[support::get_u64(record, 0)] = record;
  }
  const auto put = [&](std::uint64_t index, std::uint32_t n_cited) {
    workload::PaperRecord paper = store.generator.paper(index);
    paper.n_cited = n_cited;
    const auto record = paper.serialize();
    store.db.put(record);
    model[paper.id] = record;
  };
  const auto del = [&](std::uint64_t id) {
    store.db.del({id, 0});
    model.erase(id);
  };
  // Two overlapping C1 tables: overwrites over [7, 20], then a delete and
  // a second overwrite inside that range.
  put(6, 1001);
  put(19, 1002);
  store.db.flush();
  del(9);
  put(14, 1003);
  store.db.flush();
  // A table of new keys past the bulk load whose range reaches back into
  // C2 only through its tombstone.
  for (std::uint64_t i = 0; i < 3; ++i) {
    workload::PaperRecord paper = store.generator.paper(i);
    paper.id = store.loaded + 1 + i;
    const auto record = paper.serialize();
    store.db.put(record);
    model[paper.id] = record;
  }
  del(30);
  store.db.flush();

  // Results are PaperResult records: the Paper prefix up to the title.
  const std::size_t out_bytes =
      compiled_.get("PaperScan").analyzed.output.storage_bytes();
  const auto expected = [&](std::uint64_t lo, std::uint64_t hi) {
    std::map<std::uint64_t, std::vector<std::uint8_t>> out;
    for (auto it = model.lower_bound(lo);
         it != model.end() && it->first <= hi; ++it) {
      out[it->first].assign(it->second.begin(),
                            it->second.begin() + out_bytes);
    }
    return out;
  };
  const auto as_map = [](const std::vector<std::vector<std::uint8_t>>& rs) {
    std::map<std::uint64_t, std::vector<std::uint8_t>> out;
    for (const auto& record : rs) {
      EXPECT_TRUE(out.emplace(support::get_u64(record, 0), record).second)
          << "duplicate key " << support::get_u64(record, 0);
    }
    return out;
  };
  for (const ExecMode mode :
       {ExecMode::kHardware, ExecMode::kSoftware, ExecMode::kHostClassic}) {
    for (const std::uint32_t pes : {1u, 4u}) {
      SCOPED_TRACE(describe({mode, pes}));
      auto executor = store.executor(compiled_, mode, pes);
      std::vector<std::vector<std::uint8_t>> scan, range, multi;
      executor.scan({}, &scan);
      executor.range_scan({5, 0}, {40, 0}, {}, &range);
      executor.multi_range_scan(
          {{{1, 0}, {10, 0}}, {{25, 0}, {store.loaded + 2, 0}}}, {}, &multi);
      EXPECT_EQ(as_map(scan), expected(0, ~std::uint64_t{0}));
      EXPECT_EQ(as_map(range), expected(5, 40));
      auto multi_expected = expected(1, 10);
      multi_expected.merge(expected(25, store.loaded + 2));
      EXPECT_EQ(as_map(multi), multi_expected);
    }
  }
}

}  // namespace
}  // namespace ndpgen::ndp
