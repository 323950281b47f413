#include "core/testbed.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "support/bytes.hpp"
#include "support/crc32c.hpp"

namespace ndpgen::core {
namespace {

constexpr std::uint64_t kScale = 4096;

TestbedConfig config_for(workload::Dataset dataset, ndp::ExecMode mode,
                         std::uint32_t pes = 1) {
  TestbedConfig config;
  config.dataset = dataset;
  config.scale_divisor = kScale;
  config.executor.mode = mode;
  config.executor.num_pes = pes;
  return config;
}

TEST(Testbed, HardwareModeAttachesExactlyOnePe) {
  Testbed hw(config_for(workload::Dataset::kPapers, ndp::ExecMode::kHardware,
                        /*pes=*/4));
  EXPECT_EQ(hw.platform().pe_count(), 1u);
  // A second hardware executor shares the testbed's PE.
  (void)hw.make_executor(ndp::ExecMode::kHardware);
  EXPECT_EQ(hw.platform().pe_count(), 1u);
}

TEST(Testbed, SoftwareAndHostModesAttachNoPe) {
  for (const auto mode :
       {ndp::ExecMode::kSoftware, ndp::ExecMode::kHostClassic}) {
    Testbed testbed(config_for(workload::Dataset::kPapers, mode));
    EXPECT_EQ(testbed.platform().pe_count(), 0u) << to_string(mode);
  }
}

TEST(Testbed, PapersLoadEveryGeneratedPaper) {
  Testbed testbed(
      config_for(workload::Dataset::kPapers, ndp::ExecMode::kSoftware));
  EXPECT_EQ(testbed.records_loaded(), testbed.generator().paper_count());
  EXPECT_EQ(testbed.artifacts().analyzed.name, "PaperScan");
}

TEST(Testbed, RefsLoadEveryDistinctGeneratedEdge) {
  Testbed testbed(
      config_for(workload::Dataset::kRefs, ndp::ExecMode::kSoftware));
  const workload::PubGraphGenerator& generator = testbed.generator();
  std::set<std::pair<std::uint64_t, std::uint64_t>> edges;
  for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
    const workload::RefRecord ref = generator.ref(i);
    edges.emplace(ref.src, ref.dst);
  }
  EXPECT_EQ(testbed.records_loaded(), edges.size());
  EXPECT_EQ(testbed.artifacts().analyzed.name, "RefScan");
}

/// CRC32C over everything the bulk load leaves in the store: per table
/// its id, level, key and sequence bounds and Bloom words, per block its
/// CRC32C, first/last key, record count and flash pages, then the number
/// of records loaded.
std::uint32_t store_digest(Testbed& testbed) {
  std::vector<std::uint8_t> bytes;
  const auto put_key = [&](const kv::Key& key) {
    support::put_u64(bytes, key.hi);
    support::put_u64(bytes, key.lo);
  };
  for (const auto& table : testbed.store().version().recency_ordered()) {
    support::put_u64(bytes, table->id);
    support::put_u32(bytes, table->level);
    put_key(table->min_key);
    put_key(table->max_key);
    support::put_u64(bytes, table->min_seq);
    support::put_u64(bytes, table->max_seq);
    for (const std::uint64_t word : table->bloom.words()) {
      support::put_u64(bytes, word);
    }
    for (const kv::BlockHandle& block : table->blocks) {
      support::put_u32(bytes, block.crc32c);
      put_key(block.first_key);
      put_key(block.last_key);
      support::put_u16(bytes, block.record_count);
      for (const std::uint64_t page : block.flash_pages) {
        support::put_u64(bytes, page);
      }
    }
  }
  support::put_u64(bytes, testbed.records_loaded());
  return support::crc32c(bytes);
}

// The bulk load's output is a format: every stored byte, index entry,
// flash page and Bloom bit of both datasets at 1/256 and at the
// benchmark's 1/16 (2,359,471 refs in 19 tables) is pinned.
TEST(Testbed, LoadedStoreIsPinned) {
  struct Case {
    workload::Dataset dataset;
    std::uint64_t scale;
    std::uint32_t digest;
  };
  for (const Case& c : {Case{workload::Dataset::kPapers, 256, 2175378129u},
                        Case{workload::Dataset::kRefs, 256, 2043486331u},
                        Case{workload::Dataset::kPapers, 16, 2844295797u},
                        Case{workload::Dataset::kRefs, 16, 1251138525u}}) {
    TestbedConfig config = config_for(c.dataset, ndp::ExecMode::kSoftware);
    config.scale_divisor = c.scale;
    Testbed testbed(std::move(config));
    EXPECT_EQ(store_digest(testbed), c.digest)
        << workload::to_string(c.dataset) << " at 1/" << c.scale;
  }
}

// Every result-level ScanStats field is the same at pes 1 and 4, also
// when the sharded pipeline runs more than one window (1/64: 307 blocks).
TEST(Testbed, RefsHardwareScanIsInvariantInPes) {
  for (const std::uint64_t scale : {kScale, std::uint64_t{64}}) {
    SCOPED_TRACE(scale);
    std::vector<std::vector<std::uint8_t>> records[2];
    ndp::ScanStats stats[2];
    const std::uint32_t pes[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      TestbedConfig config = config_for(workload::Dataset::kRefs,
                                        ndp::ExecMode::kHardware, pes[i]);
      config.scale_divisor = scale;
      Testbed testbed(std::move(config));
      const std::uint64_t half = testbed.generator().paper_count() / 2;
      stats[i] = testbed.executor().scan({{"dst", "lt", half}}, &records[i]);
    }
    EXPECT_EQ(stats[0].shards, 1u);
    EXPECT_EQ(stats[1].shards, 4u);
    EXPECT_GT(stats[0].results, 0u);
    EXPECT_EQ(records[0], records[1]);
    EXPECT_EQ(stats[0].blocks, stats[1].blocks);
    EXPECT_EQ(stats[0].tuples_scanned, stats[1].tuples_scanned);
    EXPECT_EQ(stats[0].tuples_matched, stats[1].tuples_matched);
    EXPECT_EQ(stats[0].results, stats[1].results);
    EXPECT_EQ(stats[0].bytes_from_flash, stats[1].bytes_from_flash);
    EXPECT_EQ(stats[0].result_bytes, stats[1].result_bytes);
    EXPECT_EQ(stats[0].blocks_via_software, stats[1].blocks_via_software);
    // Shards split the PE phase only; the shared flash schedule stays put.
    EXPECT_EQ(stats[0].flash_done, stats[1].flash_done);
    EXPECT_LE(stats[1].elapsed, stats[0].elapsed);
  }
}

TEST(Testbed, SpecSourceAndParserOverrideTheStockParser) {
  TestbedConfig config =
      config_for(workload::Dataset::kRefs, ndp::ExecMode::kHardware);
  config.spec_source = R"spec(
/* @autogen define parser SrcOnly with
   chunksize = 32, input = Ref, output = Src */
typedef struct { uint64_t src; uint64_t dst; } Ref;
typedef struct { uint64_t src; } Src;
)spec";
  config.parser_name = "SrcOnly";
  Testbed testbed(std::move(config));
  EXPECT_EQ(testbed.artifacts().analyzed.name, "SrcOnly");
  EXPECT_EQ(testbed.artifacts().analyzed.output.storage_bytes(), 8u);
  EXPECT_EQ(testbed.platform().pe_count(), 1u);
}

}  // namespace
}  // namespace ndpgen::core
