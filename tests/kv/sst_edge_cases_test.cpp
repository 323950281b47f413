// Edge cases of the SST layer and version management.
#include <gtest/gtest.h>

#include "kv/sst_builder.hpp"
#include "kv/sst_reader.hpp"
#include "kv/version.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {
namespace {

std::vector<std::uint8_t> make_record(std::uint64_t key) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, key);
  support::put_u64(record, key * 3);
  return record;
}

Key extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), 0};
}

Key wide_extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), support::get_u64(record, 8)};
}

class SstEdgeFixture : public ::testing::Test {
 protected:
  SstEdgeFixture() : placement_(cosmos_.flash().topology()) {}
  platform::CosmosPlatform cosmos_;
  PlacementPolicy placement_;
};

TEST_F(SstEdgeFixture, TombstoneOnlySstIsValid) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  builder.add_tombstone(Key{5, 0}, 10);
  builder.add_tombstone(Key{7, 0}, 11);
  const auto table = builder.finish();
  EXPECT_TRUE(table->blocks.empty());
  EXPECT_EQ(table->tombstones.size(), 2u);
  EXPECT_EQ(table->record_count(), 0u);
  EXPECT_EQ(table->find_block(Key{5, 0}), -1);
}

TEST_F(SstEdgeFixture, SingleRecordSst) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  builder.add(make_record(42), 1);
  const auto table = builder.finish();
  EXPECT_EQ(table->min_key, table->max_key);
  SSTReader reader(*table, cosmos_.flash(), extract);
  EXPECT_TRUE(reader.get(Key{42, 0}).has_value());
  EXPECT_FALSE(reader.get(Key{41, 0}).has_value());
  EXPECT_FALSE(reader.get(Key{43, 0}).has_value());
}

TEST_F(SstEdgeFixture, ReaderRejectsBadBlockIndex) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  builder.add(make_record(1), 1);
  const auto table = builder.finish();
  SSTReader reader(*table, cosmos_.flash(), extract);
  EXPECT_THROW(reader.read_block(1), ndpgen::Error);
}

TEST_F(SstEdgeFixture, VersionOverlappingQueries) {
  Version version;
  auto build_range = [&](std::uint64_t id, std::uint64_t lo,
                         std::uint64_t hi) {
    SSTBuilder builder(id, 2, 16, extract, placement_, cosmos_.flash());
    for (std::uint64_t key = lo; key < hi; ++key) {
      builder.add(make_record(key), key);
    }
    return builder.finish();
  };
  version.add(2, build_range(1, 0, 100));
  version.add(2, build_range(2, 200, 300));
  EXPECT_EQ(version.overlapping(2, Key{50, 0}, Key{60, 0}).size(), 1u);
  EXPECT_EQ(version.overlapping(2, Key{150, 0}, Key{160, 0}).size(), 0u);
  EXPECT_EQ(version.overlapping(2, Key{50, 0}, Key{250, 0}).size(), 2u);
  EXPECT_EQ(version.overlapping(2, Key{99, 0}, Key{99, 0}).size(), 1u);
}

TEST_F(SstEdgeFixture, VersionRemoveUnknownIdThrows) {
  Version version;
  SSTBuilder builder(7, 1, 16, extract, placement_, cosmos_.flash());
  builder.add(make_record(1), 1);
  version.add(1, builder.finish());
  EXPECT_THROW(version.remove(1, 99), ndpgen::Error);
  EXPECT_NO_THROW(version.remove(1, 7));
  EXPECT_EQ(version.total_ssts(), 0u);
}

TEST_F(SstEdgeFixture, VersionLevelBoundsChecked) {
  Version version;
  EXPECT_THROW((void)version.level(0), ndpgen::Error);
  EXPECT_THROW((void)version.level(kMaxLevels + 1), ndpgen::Error);
}

TEST_F(SstEdgeFixture, RecencyOrderedPutsNewestC1First) {
  Version version;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    SSTBuilder builder(id, 1, 16, extract, placement_, cosmos_.flash());
    builder.add(make_record(id), id);
    version.add(1, builder.finish());
  }
  {
    SSTBuilder builder(10, 2, 16, extract, placement_, cosmos_.flash());
    builder.add(make_record(100), 100);
    version.add(2, builder.finish());
  }
  const auto ordered = version.recency_ordered();
  ASSERT_EQ(ordered.size(), 4u);
  EXPECT_EQ(ordered[0]->id, 3u);  // Newest C1 flush first.
  EXPECT_EQ(ordered[1]->id, 2u);
  EXPECT_EQ(ordered[2]->id, 1u);
  EXPECT_EQ(ordered[3]->id, 10u);  // Deeper levels after.
}

TEST_F(SstEdgeFixture, WideKeysUseBothHalves) {
  SSTBuilder builder(1, 1, 16, wide_extract, placement_, cosmos_.flash());
  std::vector<std::uint8_t> a, b;
  support::put_u64(a, 1);
  support::put_u64(a, 5);
  support::put_u64(b, 1);
  support::put_u64(b, 9);
  builder.add(a, 1);
  builder.add(b, 2);  // Same hi, larger lo: strictly ascending.
  const auto table = builder.finish();
  SSTReader reader(*table, cosmos_.flash(), wide_extract);
  EXPECT_TRUE(reader.get(Key{1, 5}).has_value());
  EXPECT_TRUE(reader.get(Key{1, 9}).has_value());
  EXPECT_FALSE(reader.get(Key{1, 7}).has_value());
}

}  // namespace
}  // namespace ndpgen::kv
