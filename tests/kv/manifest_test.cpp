#include "kv/manifest.hpp"

#include <gtest/gtest.h>

#include "kv/db.hpp"
#include "kv/sst_reader.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/crc32c.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ndpgen::kv {
namespace {

std::vector<std::uint8_t> make_record(std::uint64_t key) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, key);
  support::put_u64(record, key * 5);
  return record;
}

Key extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), 0};
}

class ManifestFixture : public ::testing::Test {
 protected:
  ManifestFixture() : db_(cosmos_, config()) {
    for (std::uint64_t key = 0; key < 4000; ++key) db_.put(make_record(key));
    db_.flush();
    db_.del(Key{17, 0});
    db_.flush();
  }

  static DBConfig config() {
    DBConfig result;
    result.record_bytes = 16;
    result.extractor = extract;
    result.auto_flush = false;
    result.auto_compact = false;
    return result;
  }

  platform::CosmosPlatform cosmos_;
  NKV db_{cosmos_, config()};
};

TEST_F(ManifestFixture, RoundTripPreservesEverything) {
  const Version& original = db_.version();
  const auto bytes = encode_manifest(original);
  const Version restored = decode_manifest(bytes);

  EXPECT_EQ(restored.total_ssts(), original.total_ssts());
  EXPECT_EQ(restored.total_records(), original.total_records());
  EXPECT_EQ(restored.total_data_bytes(), original.total_data_bytes());
  for (std::uint32_t level = 1; level <= kMaxLevels; ++level) {
    ASSERT_EQ(restored.level(level).size(), original.level(level).size());
    for (std::size_t i = 0; i < original.level(level).size(); ++i) {
      const auto& a = *original.level(level)[i];
      const auto& b = *restored.level(level)[i];
      EXPECT_EQ(a.id, b.id);
      EXPECT_EQ(a.min_key, b.min_key);
      EXPECT_EQ(a.max_key, b.max_key);
      EXPECT_EQ(a.min_seq, b.min_seq);
      EXPECT_EQ(a.max_seq, b.max_seq);
      ASSERT_EQ(a.blocks.size(), b.blocks.size());
      for (std::size_t block = 0; block < a.blocks.size(); ++block) {
        EXPECT_EQ(a.blocks[block].flash_pages, b.blocks[block].flash_pages);
        EXPECT_EQ(a.blocks[block].first_key, b.blocks[block].first_key);
        EXPECT_EQ(a.blocks[block].last_key, b.blocks[block].last_key);
        EXPECT_EQ(a.blocks[block].record_count, b.blocks[block].record_count);
      }
      ASSERT_EQ(a.tombstones.size(), b.tombstones.size());
      EXPECT_EQ(a.bloom.words(), b.bloom.words());
    }
  }
}

TEST_F(ManifestFixture, RestoredVersionReadsFlashContent) {
  // "Recovery": a fresh Version decoded from the manifest can serve reads
  // against the same flash device.
  const auto bytes = encode_manifest(db_.version());
  const Version restored = decode_manifest(bytes);
  const auto& table = restored.level(1).front();
  SSTReader reader(*table, cosmos_.flash(), extract);
  const auto hit = reader.get(Key{123, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(support::get_u64(*hit, 8), 123u * 5);
  // Tombstone metadata survived too.
  bool tombstone_found = false;
  for (const auto& restored_table : restored.recency_ordered()) {
    if (restored_table->find_tombstone(Key{17, 0}) != nullptr) {
      tombstone_found = true;
    }
  }
  EXPECT_TRUE(tombstone_found);
}

TEST_F(ManifestFixture, BloomSurvivesRoundTrip) {
  const Version restored = decode_manifest(encode_manifest(db_.version()));
  const auto& table = restored.level(1).front();
  EXPECT_TRUE(table->bloom.may_contain(Key{100, 0}));
}

TEST(Manifest, EmptyVersionRoundTrips) {
  Version empty;
  const Version restored = decode_manifest(encode_manifest(empty));
  EXPECT_EQ(restored.total_ssts(), 0u);
}

TEST(Manifest, RejectsCorruptInput) {
  EXPECT_THROW(decode_manifest(std::vector<std::uint8_t>{1, 2, 3}),
               ndpgen::Error);
  Version empty;
  auto bytes = encode_manifest(empty);
  bytes[0] ^= 0xff;  // Magic.
  EXPECT_THROW(decode_manifest(bytes), ndpgen::Error);
  bytes[0] ^= 0xff;
  bytes.push_back(0);  // Trailing garbage.
  EXPECT_THROW(decode_manifest(bytes), ndpgen::Error);
}

/// A fixed multi-level version whose every field takes a distinct value:
/// a 130-block table (two-byte block-count varint) with two-byte page and
/// Bloom-word varints, a tombstone-only table and empty levels.
Version pinned_version() {
  support::SplitMix64 rng(33);
  auto key = [&] { return Key{rng.next(), rng.next()}; };
  auto table = [&](std::uint64_t id, std::uint32_t level, std::size_t blocks,
                   std::size_t pages, std::size_t tombstones,
                   std::size_t words) {
    auto sst = std::make_shared<SSTable>();
    sst->id = id;
    sst->level = level;
    sst->record_bytes = 16 + 8 * level;
    sst->min_key = key();
    sst->max_key = key();
    sst->min_seq = rng.next();
    sst->max_seq = rng.next();
    for (std::size_t b = 0; b < blocks; ++b) {
      BlockHandle handle;
      handle.first_key = key();
      handle.last_key = key();
      handle.record_count = static_cast<std::uint16_t>(rng.next());
      handle.crc32c = static_cast<std::uint32_t>(rng.next());
      for (std::size_t p = 0; p < pages + b % 2; ++p) {
        handle.flash_pages.push_back(rng.next() >> (b % 64));
      }
      sst->blocks.push_back(std::move(handle));
    }
    for (std::size_t t = 0; t < tombstones; ++t) {
      sst->tombstones.push_back(Tombstone{key(), rng.next()});
    }
    std::vector<std::uint64_t> bloom(words);
    for (auto& word : bloom) word = rng.next();
    sst->bloom = BloomFilter::from_words(std::move(bloom));
    return sst;
  };
  Version version;
  version.add(1, table(7, 1, 3, 2, 1, 4));
  version.add(1, table(8, 1, 1, 2, 0, 1));
  version.add(2, table(1'000'000, 2, 130, 2, 5, 200));
  version.add(2, table(1'000'001, 2, 2, 140, 0, 0));
  version.add(3, table(1'000'002, 3, 0, 0, 7, 3));
  version.add(5, table(1'000'003, 5, 9, 1, 129, 130));
  return version;
}

TEST(Manifest, EncodedImageIsPinned) {
  ManifestImage image;
  image.version = pinned_version();
  image.last_sequence = 0x0123456789abcdefULL;
  image.next_sst_id = 1'000'004;
  const std::vector<std::uint8_t> bytes = encode_manifest_image(image);
  // Recorded from the byte-per-push encoder this one replaced.
  EXPECT_EQ(bytes.size(), 17230u);
  EXPECT_EQ(support::crc32c(bytes), 0xe9b1475cu);
  EXPECT_EQ(encode_manifest_image(decode_manifest_image(bytes)), bytes);
}

TEST(Manifest, RejectsTruncatedInput) {
  platform::CosmosPlatform cosmos;
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  config.auto_flush = false;
  NKV db(cosmos, config);
  for (std::uint64_t key = 0; key < 100; ++key) db.put(make_record(key));
  db.flush();
  auto bytes = encode_manifest(db.version());
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_manifest(bytes), ndpgen::Error);
}

}  // namespace
}  // namespace ndpgen::kv
