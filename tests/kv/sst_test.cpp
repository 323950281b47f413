#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "kv/sst_builder.hpp"
#include "kv/sst_reader.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {
namespace {

// 16-byte record: (hi u64, lo u64); key = (hi, lo).
std::vector<std::uint8_t> make_record(std::uint64_t hi, std::uint64_t lo) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, hi);
  support::put_u64(record, lo);
  return record;
}

Key extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), support::get_u64(record, 8)};
}

class SstFixture : public ::testing::Test {
 protected:
  SstFixture() : placement_(cosmos_.flash().topology()) {}

  std::shared_ptr<SSTable> build(std::uint64_t count,
                                 std::uint64_t stride = 1) {
    SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
    for (std::uint64_t i = 0; i < count; ++i) {
      builder.add(make_record(i * stride, 0), i);
    }
    return builder.finish();
  }

  platform::CosmosPlatform cosmos_;
  PlacementPolicy placement_;
};

TEST_F(SstFixture, MetadataCoversContents) {
  const auto table = build(100);
  EXPECT_EQ(table->record_count(), 100u);
  EXPECT_EQ(table->min_key, (Key{0, 0}));
  EXPECT_EQ(table->max_key, (Key{99, 0}));
  EXPECT_EQ(table->min_seq, 0u);
  EXPECT_EQ(table->max_seq, 99u);
  ASSERT_EQ(table->blocks.size(), 1u);
  EXPECT_EQ(table->blocks[0].record_count, 100u);
  // 32 KiB block = 2 flash pages of 16 KiB.
  EXPECT_EQ(table->blocks[0].flash_pages.size(), 2u);
}

TEST_F(SstFixture, MultipleBlocksSplitSorted) {
  const std::uint64_t per_block = records_per_block(16);
  const auto table = build(per_block + 10);
  ASSERT_EQ(table->blocks.size(), 2u);
  EXPECT_EQ(table->blocks[0].record_count, per_block);
  EXPECT_EQ(table->blocks[1].record_count, 10u);
  EXPECT_LT(table->blocks[0].last_key, table->blocks[1].first_key);
}

TEST_F(SstFixture, OutOfOrderAddFails) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  builder.add(make_record(5, 0), 1);
  EXPECT_THROW(builder.add(make_record(4, 0), 2), ndpgen::Error);
  EXPECT_THROW(builder.add(make_record(5, 0), 3), ndpgen::Error);  // Equal.
}

TEST_F(SstFixture, EmptyTableFails) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  EXPECT_THROW((void)builder.finish(), ndpgen::Error);
}

TEST_F(SstFixture, FindBlockBinarySearch) {
  const auto table = build(5000);  // 3 blocks.
  ASSERT_GE(table->blocks.size(), 2u);
  EXPECT_EQ(table->find_block(Key{0, 0}), 0);
  EXPECT_EQ(table->find_block(table->blocks[1].first_key), 1);
  EXPECT_EQ(table->find_block(Key{4999, 0}),
            static_cast<int>(table->blocks.size()) - 1);
  EXPECT_EQ(table->find_block(Key{5000, 0}), -1);
}

TEST_F(SstFixture, ReaderGetFindsExistingKeys) {
  const auto table = build(3000, 2);  // Keys 0, 2, 4, ...
  SSTReader reader(*table, cosmos_.flash(), extract);
  const auto hit = reader.get(Key{2 * 1234, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(support::get_u64(*hit, 0), 2u * 1234);
  // Keys between records are misses.
  EXPECT_FALSE(reader.get(Key{2 * 1234 + 1, 0}).has_value());
  EXPECT_FALSE(reader.get(Key{6001, 0}).has_value());
}

TEST_F(SstFixture, ReaderIteratesAllRecordsInOrder) {
  const auto table = build(2500);
  SSTReader reader(*table, cosmos_.flash(), extract);
  std::uint64_t expected = 0;
  reader.for_each_record([&](std::span<const std::uint8_t> record) {
    EXPECT_EQ(support::get_u64(record, 0), expected);
    ++expected;
  });
  EXPECT_EQ(expected, 2500u);
}

TEST_F(SstFixture, BlockAssemblyMatchesFormat) {
  const auto table = build(10);
  SSTReader reader(*table, cosmos_.flash(), extract);
  const auto block = reader.read_block(0);
  const auto trailer = read_trailer(block);
  EXPECT_EQ(trailer.record_count, 10u);
  EXPECT_EQ(trailer.record_bytes, 16u);
}

TEST_F(SstFixture, TombstonesSortedAndDeduplicated) {
  SSTBuilder builder(1, 1, 16, extract, placement_, cosmos_.flash());
  builder.add(make_record(1, 0), 1);
  builder.add_tombstone(Key{9, 0}, 5);
  builder.add_tombstone(Key{3, 0}, 4);
  builder.add_tombstone(Key{9, 0}, 7);  // Newer duplicate.
  const auto table = builder.finish();
  ASSERT_EQ(table->tombstones.size(), 2u);
  EXPECT_EQ(table->tombstones[0].key, (Key{3, 0}));
  EXPECT_EQ(table->tombstones[1].key, (Key{9, 0}));
  EXPECT_EQ(table->tombstones[1].seq, 7u);  // Newest kept.
  ASSERT_NE(table->find_tombstone(Key{9, 0}), nullptr);
  EXPECT_EQ(table->find_tombstone(Key{4, 0}), nullptr);
  // Tombstones extend the key range.
  EXPECT_EQ(table->max_key, (Key{9, 0}));
}

TEST_F(SstFixture, BlocksLandOnDistinctLunsWithinStripe) {
  const auto table = build(100);
  const auto& pages = table->blocks[0].flash_pages;
  const auto a = cosmos_.flash().delinearize(pages[0]);
  const auto b = cosmos_.flash().delinearize(pages[1]);
  const bool same_lun =
      a.controller == b.controller && a.channel == b.channel && a.lun == b.lun;
  EXPECT_FALSE(same_lun);
}

// One builder reused across tables (a bulk load's tables, a compaction's
// outputs) keeps its block image and Bloom key buffer. Every table it
// builds equals the one a fresh builder on a fresh device builds: the
// block images and flash pages, the index, the tombstones and every Bloom
// word. The sizes shrink and grow, so a table's filter is built from a
// key buffer the previous, larger table left with spare capacity.
TEST(SstBuilderReuse, BackToBackTablesEqualSeparateBuilders) {
  struct Spec {
    std::uint64_t records;
    std::uint64_t tombstones;
  };
  const Spec specs[] = {{3'000, 0}, {500, 7}, {2'047, 0}, {1, 0},
                        {0, 3},     {4'100, 40}};
  const auto fill = [](SSTBuilder& builder, std::size_t t, const Spec& spec) {
    const std::uint64_t base = (t + 1) * 1'000'000;
    for (std::uint64_t i = 0; i < spec.records; ++i) {
      builder.add(make_record(base + 3 * i, i * 7 % 5), base + i);
    }
    for (std::uint64_t i = 0; i < spec.tombstones; ++i) {
      builder.add_tombstone(Key{base + 3 * i + 1, 0}, base + spec.records + i);
    }
  };

  platform::CosmosPlatform reused_cosmos;
  PlacementPolicy reused_placement(reused_cosmos.flash().topology());
  platform::CosmosPlatform fresh_cosmos;
  PlacementPolicy fresh_placement(fresh_cosmos.flash().topology());
  SSTBuilder reused(1, 2, 16, extract, reused_placement,
                    reused_cosmos.flash(), 16);
  for (std::size_t t = 0; t < std::size(specs); ++t) {
    SCOPED_TRACE(t);
    if (t > 0) {
      EXPECT_FALSE(reused.open());
      reused.start(t + 1);
    }
    ASSERT_TRUE(reused.open());
    fill(reused, t, specs[t]);
    const auto got = reused.finish();
    EXPECT_FALSE(reused.open());

    SSTBuilder fresh(t + 1, 2, 16, extract, fresh_placement,
                     fresh_cosmos.flash());
    fill(fresh, t, specs[t]);
    const auto want = fresh.finish();

    EXPECT_EQ(got->id, want->id);
    EXPECT_EQ(got->min_key, want->min_key);
    EXPECT_EQ(got->max_key, want->max_key);
    EXPECT_EQ(got->min_seq, want->min_seq);
    EXPECT_EQ(got->max_seq, want->max_seq);
    EXPECT_EQ(got->bloom.words(), want->bloom.words());
    ASSERT_EQ(got->tombstones.size(), want->tombstones.size());
    for (std::size_t i = 0; i < got->tombstones.size(); ++i) {
      EXPECT_EQ(got->tombstones[i].key, want->tombstones[i].key);
      EXPECT_EQ(got->tombstones[i].seq, want->tombstones[i].seq);
    }
    ASSERT_EQ(got->blocks.size(), want->blocks.size());
    for (std::size_t b = 0; b < got->blocks.size(); ++b) {
      const BlockHandle& x = got->blocks[b];
      const BlockHandle& y = want->blocks[b];
      EXPECT_EQ(x.first_key, y.first_key);
      EXPECT_EQ(x.last_key, y.last_key);
      EXPECT_EQ(x.record_count, y.record_count);
      EXPECT_EQ(x.crc32c, y.crc32c);
      ASSERT_EQ(x.flash_pages, y.flash_pages);
      for (const std::uint64_t page : x.flash_pages) {
        const auto a = reused_cosmos.flash().page_data(
            reused_cosmos.flash().delinearize(page));
        const auto c = fresh_cosmos.flash().page_data(
            fresh_cosmos.flash().delinearize(page));
        ASSERT_TRUE(std::equal(a.begin(), a.end(), c.begin(), c.end()));
      }
    }
  }
}

}  // namespace
}  // namespace ndpgen::kv
