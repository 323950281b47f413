// Device-restart recovery of a durable store: the in-DRAM store object is
// lost, a fresh one recover()s from the persistent flash content and
// behaves exactly like the store that was lost.
#include <gtest/gtest.h>

#include <algorithm>

#include "kv/db.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {
namespace {

std::vector<std::uint8_t> make_record(std::uint64_t key,
                                      std::uint64_t value) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, key);
  support::put_u64(record, value);
  return record;
}

Key extract(std::span<const std::uint8_t> record) {
  return Key{support::get_u64(record, 0), 0};
}

DBConfig config() {
  DBConfig result;
  result.record_bytes = 16;
  result.extractor = extract;
  result.auto_flush = false;
  result.auto_compact = false;
  result.durability.enabled = true;
  return result;
}

std::uint64_t max_sst_id(const NKV& db) {
  std::uint64_t id = 0;
  for (const auto& table : db.version().recency_ordered()) {
    id = std::max(id, table->id);
  }
  return id;
}

TEST(Recovery, RestoredStoreServesReadsAndWrites) {
  constexpr std::uint64_t kKeys = 2000;
  platform::CosmosPlatform cosmos;
  std::uint64_t records_before = 0;
  {
    NKV db(cosmos, config());
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      db.put(make_record(key, key * 2));
      // Flushing truncates the WAL (one synced page per put).
      if ((key + 1) % 500 == 0) db.flush();
    }
    db.del(Key{100, 0});
    db.flush();
    records_before = db.version().total_records();
  }  // "Power loss": the in-DRAM store object is gone; flash survives.

  NKV restored(cosmos, config());
  const RecoveryReport report = restored.recover();
  EXPECT_TRUE(report.manifest_found);
  EXPECT_EQ(report.tables_restored, 5u);
  EXPECT_EQ(report.torn_sst_blocks, 0u);
  EXPECT_EQ(restored.version().total_records(), records_before);
  // Reads see the pre-restart state, including the deletion.
  const auto hit = restored.get(Key{1321, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(support::get_u64(*hit, 8), 1321u * 2);
  EXPECT_FALSE(restored.get(Key{100, 0}).has_value());

  // New writes allocate fresh pages (no collision with restored data)
  // and shadow the old versions.
  restored.put(make_record(1321, 999));
  restored.flush();
  const auto updated = restored.get(Key{1321, 0});
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(support::get_u64(*updated, 8), 999u);
  // Every pre-restart record remains intact underneath.
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    if (key == 100 || key == 1321) continue;
    const auto record = restored.get(Key{key, 0});
    ASSERT_TRUE(record.has_value()) << key;
    EXPECT_EQ(support::get_u64(*record, 8), key * 2) << key;
  }
}

TEST(Recovery, SequenceAndIdCountersResume) {
  platform::CosmosPlatform cosmos;
  SequenceNumber last_seq = 0;
  std::uint64_t last_id = 0;
  {
    NKV db(cosmos, config());
    for (std::uint64_t key = 0; key < 100; ++key) {
      db.put(make_record(key, 1));
    }
    db.flush();
    last_seq = db.last_sequence();
    last_id = max_sst_id(db);
  }
  NKV restored(cosmos, config());
  (void)restored.recover();
  EXPECT_GE(restored.last_sequence(), last_seq);
  // A post-restart flush must be recognized as NEWER than restored data.
  restored.put(make_record(50, 777));
  restored.flush();
  EXPECT_GT(max_sst_id(restored), last_id);
  restored.compact();
  const auto hit = restored.get(Key{50, 0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(support::get_u64(*hit, 8), 777u);
}

TEST(Recovery, RequiresEmptyMemtable) {
  platform::CosmosPlatform cosmos;
  {
    NKV db(cosmos, config());
    db.put(make_record(1, 1));
    db.flush();
  }
  NKV restored(cosmos, config());
  restored.put(make_record(2, 2));  // Unflushed.
  EXPECT_THROW((void)restored.recover(), ndpgen::Error);
  // Flushed is not fresh either: the store already wrote on its own.
  restored.flush();
  EXPECT_THROW((void)restored.recover(), ndpgen::Error);
}

TEST(Recovery, RejectsSchemaMismatch) {
  platform::CosmosPlatform cosmos;
  {
    NKV db(cosmos, config());
    db.put(make_record(1, 1));
    db.flush();
  }
  DBConfig other = config();
  other.record_bytes = 32;
  NKV wrong(cosmos, other);
  try {
    (void)wrong.recover();
    FAIL() << "a manifest of another schema must be refused";
  } catch (const ndpgen::Error& error) {
    EXPECT_EQ(error.kind(), ndpgen::ErrorKind::kInvalidArg);
  }
}

}  // namespace
}  // namespace ndpgen::kv
