#include "kv/compaction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

#include "kv/db.hpp"
#include "kv/sst_reader.hpp"
#include "platform/cosmos.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

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

DBConfig config_with(std::uint32_t l1_trigger) {
  DBConfig config;
  config.record_bytes = 16;
  config.extractor = extract;
  config.memtable_bytes = 2 * 1024;
  config.auto_flush = false;
  config.auto_compact = false;
  config.compaction.l1_trigger = l1_trigger;
  config.compaction.output_sst_blocks = 2;
  return config;
}

class CompactionFixture : public ::testing::Test {
 protected:
  CompactionFixture() : db_(cosmos_, config_with(2)) {}

  void flush_batch(std::uint64_t lo, std::uint64_t hi, std::uint64_t tag) {
    for (std::uint64_t key = lo; key < hi; ++key) {
      db_.put(make_record(key, tag * 1'000'000 + key));
    }
    db_.flush();
  }

  platform::CosmosPlatform cosmos_;
  NKV db_;
};

TEST_F(CompactionFixture, TriggerFiresAboveThreshold) {
  flush_batch(0, 50, 1);
  flush_batch(25, 75, 2);
  EXPECT_EQ(db_.compact(), 0u);  // 2 SSTs == trigger, not above.
  flush_batch(50, 100, 3);
  EXPECT_GT(db_.compact(), 0u);
  EXPECT_EQ(db_.version().sst_count(1), 0u);
  EXPECT_GT(db_.version().sst_count(2), 0u);
}

TEST_F(CompactionFixture, NewestVersionWinsAfterMerge) {
  flush_batch(0, 50, 1);
  flush_batch(0, 50, 2);
  flush_batch(0, 50, 3);  // Same keys three times.
  db_.compact();
  // All duplicates purged: exactly 50 live records.
  EXPECT_EQ(db_.version().total_records(), 50u);
  for (std::uint64_t key = 0; key < 50; key += 7) {
    const auto hit = db_.get(Key{key, 0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(support::get_u64(*hit, 8), 3'000'000 + key);
  }
  EXPECT_GT(db_.compaction_stats().records_purged, 0u);
}

TEST_F(CompactionFixture, OutputsAreSortedAndSplit) {
  flush_batch(0, 3000, 1);
  flush_batch(3000, 6000, 2);
  flush_batch(6000, 9000, 3);
  db_.compact();
  const auto& level2 = db_.version().level(2);
  ASSERT_GT(level2.size(), 1u);  // Split at 2 blocks per output SST.
  Key previous = Key::min();
  bool first = true;
  for (const auto& table : level2) {
    SSTReader reader(*table, cosmos_.flash(), extract);
    reader.for_each_record([&](std::span<const std::uint8_t> record) {
      const Key key = extract(record);
      if (!first) EXPECT_LT(previous, key);
      first = false;
      previous = key;
    });
  }
}

TEST_F(CompactionFixture, TombstonesDropAtBottom) {
  flush_batch(0, 20, 1);
  for (std::uint64_t key = 0; key < 10; ++key) db_.del(Key{key, 0});
  db_.flush();
  flush_batch(20, 40, 2);
  db_.compact();  // Into empty L2 -> tombstones can drop.
  EXPECT_GT(db_.compaction_stats().tombstones_dropped, 0u);
  EXPECT_EQ(db_.version().total_records(), 30u);
  EXPECT_FALSE(db_.get(Key{5, 0}).has_value());
  EXPECT_TRUE(db_.get(Key{15, 0}).has_value());
}

TEST_F(CompactionFixture, TombstonesKeptWhenDeeperDataExists) {
  // Seed L3 with old data, then delete some of it via L1->L2 compaction.
  std::uint64_t next = 0;
  db_.bulk_load_sorted(
      3,
      [&](std::vector<std::uint8_t>& record) {
        if (next >= 20) return false;
        record = make_record(next, 777);
        ++next;
        return true;
      },
      1000);
  for (std::uint64_t key = 0; key < 5; ++key) db_.del(Key{key, 0});
  db_.flush();
  flush_batch(100, 160, 1);
  flush_batch(160, 220, 1);
  db_.compact();
  // The tombstones must survive in L2 to shadow the L3 values.
  std::size_t tombstones = 0;
  for (const auto& table : db_.version().level(2)) {
    tombstones += table->tombstones.size();
  }
  EXPECT_EQ(tombstones, 5u);
  EXPECT_FALSE(db_.get(Key{2, 0}).has_value());
  EXPECT_TRUE(db_.get(Key{10, 0}).has_value());
}

TEST_F(CompactionFixture, TombstoneOnlyOutputIsKept) {
  // L3 holds keys 0..19. Deleting 15..19 with one flush each leaves five
  // tombstone-only C1 tables; compacting them into C2 must keep the
  // tombstones, or the L3 records come back.
  std::uint64_t next = 0;
  db_.bulk_load_sorted(
      3,
      [&](std::vector<std::uint8_t>& record) {
        if (next >= 20) return false;
        record = make_record(next, 777);
        ++next;
        return true;
      },
      1000);
  for (std::uint64_t key = 15; key < 20; ++key) {
    db_.del(Key{key, 0});
    db_.flush();
  }
  EXPECT_GT(db_.compact(), 0u);
  EXPECT_EQ(db_.version().sst_count(1), 0u);
  ASSERT_EQ(db_.version().sst_count(2), 1u);
  EXPECT_EQ(db_.version().level(2).front()->tombstones.size(), 5u);
  for (std::uint64_t key = 15; key < 20; ++key) {
    EXPECT_FALSE(db_.get(Key{key, 0}).has_value()) << "key " << key;
  }
  EXPECT_TRUE(db_.get(Key{14, 0}).has_value());
}

TEST_F(CompactionFixture, StatsAreConsistent) {
  flush_batch(0, 100, 1);
  flush_batch(50, 150, 2);
  flush_batch(100, 200, 3);
  db_.compact();
  const auto& stats = db_.compaction_stats();
  EXPECT_EQ(stats.records_in,
            stats.records_out + stats.records_purged);
  EXPECT_EQ(stats.records_out, db_.version().total_records());
}

TEST_F(CompactionFixture, SizeTriggerCascades) {
  // Push enough data through L1 that L2 exceeds its 8 MiB base target.
  // Each flushed batch of 3000 records is ~48 KB; use bulk loads instead
  // to reach the size trigger quickly.
  std::uint64_t next = 0;
  const std::uint64_t total = 700'000;  // ~11 MB of 16 B records.
  db_.bulk_load_sorted(
      2,
      [&](std::vector<std::uint8_t>& record) {
        if (next >= total) return false;
        record = make_record(next, next);
        ++next;
        return true;
      },
      100'000);
  EXPECT_GT(db_.compact(), 0u);
  EXPECT_EQ(db_.version().sst_count(2), 0u);
  EXPECT_GT(db_.version().sst_count(3), 0u);
  EXPECT_EQ(db_.version().total_records(), total);
}

// ---------------------------------------------------------------------------
// Differential check of the k-way merge against the gather + stable_sort
// compaction it replaced, kept here as the oracle. Two identical stacks
// (platform, version, placement) see the same flushes and compactions,
// one compacted by Compactor and one by the oracle; every output table,
// byte and counter must agree.

struct OracleEntry {
  Key key;
  SequenceNumber effective_seq;
  EntryType type;
  std::vector<std::uint8_t> record;  ///< Empty for tombstones.
};

using HookCalls = std::vector<std::pair<std::vector<std::uint8_t>, bool>>;

/// One store stack: flash, version and placement, no NKV around them.
struct Stack {
  explicit Stack(std::uint32_t record_bytes, CompactionConfig config)
      : placement(cosmos.flash().topology()),
        compactor(version, placement, cosmos.flash(), extract, record_bytes,
                  config, /*timed=*/true) {
    hook = [this](std::span<const std::uint8_t> record, bool added) {
      hook_calls.emplace_back(
          std::vector<std::uint8_t>(record.begin(), record.end()), added);
    };
    compactor.set_record_hook(hook);
  }

  platform::CosmosPlatform cosmos;
  Version version;
  PlacementPolicy placement;
  Compactor compactor;
  RecordHook hook;
  HookCalls hook_calls;
  // Oracle state, mirroring the Compactor's.
  CompactionStats oracle_stats;
  std::uint64_t oracle_next_id = 1'000'000;
};

/// The gather + stable_sort body of Compactor::compact_level, timed.
void oracle_compact_level(Stack& stack, std::uint32_t level,
                          std::uint32_t record_bytes,
                          const CompactionConfig& config) {
  platform::FlashModel& flash = stack.cosmos.flash();
  CompactionStats& stats = stack.oracle_stats;
  const std::uint32_t target = level + 1;
  bool bottom = true;
  for (std::uint32_t deeper = target + 1; deeper <= kMaxLevels; ++deeper) {
    if (stack.version.sst_count(deeper) != 0) {
      bottom = false;
      break;
    }
  }
  std::vector<std::shared_ptr<SSTable>> inputs = stack.version.level(level);
  if (inputs.empty()) return;
  Key lo = Key::max();
  Key hi = Key::min();
  for (const auto& table : inputs) {
    lo = std::min(lo, table->min_key);
    hi = std::max(hi, table->max_key);
  }
  for (const auto& table : stack.version.overlapping(target, lo, hi)) {
    inputs.push_back(table);
  }

  std::vector<OracleEntry> entries;
  for (const auto& table : inputs) {
    SSTReader reader(*table, flash, extract);
    reader.for_each_record([&](std::span<const std::uint8_t> record) {
      entries.push_back(OracleEntry{extract(record), table->max_seq,
                                    EntryType::kValue,
                                    {record.begin(), record.end()}});
      ++stats.records_in;
      stack.hook(record, /*added=*/false);
    });
    for (const auto& tombstone : table->tombstones) {
      entries.push_back(
          OracleEntry{tombstone.key, tombstone.seq, EntryType::kTombstone, {}});
    }
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const OracleEntry& a, const OracleEntry& b) {
                     return a.key != b.key ? a.key < b.key
                                           : a.effective_seq > b.effective_seq;
                   });

  std::unique_ptr<SSTBuilder> builder;
  std::vector<std::shared_ptr<SSTable>> outputs;
  const std::uint32_t records_per_output =
      records_per_block(record_bytes) * config.output_sst_blocks;
  std::uint64_t records_in_output = 0;
  auto open_builder = [&] {
    builder = std::make_unique<SSTBuilder>(stack.oracle_next_id++, target,
                                           record_bytes, extract,
                                           stack.placement, flash);
    records_in_output = 0;
  };
  // With the tombstone-only fix: every opened builder becomes a table.
  auto close_builder = [&] {
    if (builder != nullptr) outputs.push_back(builder->finish());
    builder.reset();
  };
  const Key* previous_key = nullptr;
  for (const auto& entry : entries) {
    if (previous_key != nullptr && entry.key == *previous_key) {
      if (entry.type == EntryType::kValue) ++stats.records_purged;
      continue;
    }
    previous_key = &entry.key;
    if (entry.type == EntryType::kTombstone) {
      if (bottom) {
        ++stats.tombstones_dropped;
      } else {
        if (builder == nullptr) open_builder();
        builder->add_tombstone(entry.key, entry.effective_seq);
      }
      continue;
    }
    if (builder == nullptr) open_builder();
    builder->add(entry.record, entry.effective_seq);
    stack.hook(entry.record, /*added=*/true);
    ++stats.records_out;
    if (++records_in_output >= records_per_output) close_builder();
  }
  close_builder();

  auto pending = std::make_shared<std::size_t>(0);
  auto charge_pages = [&](const std::vector<std::shared_ptr<SSTable>>& set,
                          bool is_input) {
    for (const auto& table : set) {
      for (const auto& handle : table->blocks) {
        for (const std::uint64_t page : handle.flash_pages) {
          ++*pending;
          const auto addr = flash.delinearize(page);
          auto on_done = [pending] { --*pending; };
          if (is_input) {
            flash.read_page(addr, std::move(on_done));
          } else {
            flash.charge_program(addr, std::move(on_done));
          }
        }
      }
    }
  };
  charge_pages(inputs, /*is_input=*/true);
  charge_pages(outputs, /*is_input=*/false);
  while (*pending > 0 && flash.queue().step()) {
  }
  for (const auto& table : inputs) {
    stack.version.remove(table->level, table->id);
  }
  for (auto& table : outputs) stack.version.add(target, std::move(table));
  ++stats.compactions;
}

void expect_same_stats(const CompactionStats& a, const CompactionStats& b) {
  EXPECT_EQ(a.compactions, b.compactions);
  EXPECT_EQ(a.records_in, b.records_in);
  EXPECT_EQ(a.records_out, b.records_out);
  EXPECT_EQ(a.records_purged, b.records_purged);
  EXPECT_EQ(a.tombstones_dropped, b.tombstones_dropped);
}

/// Every table of every level: metadata, Bloom words and the block bytes
/// read back through each stack's flash pages.
void expect_same_tables(Stack& merged, Stack& oracle) {
  for (std::uint32_t level = 1; level <= kMaxLevels; ++level) {
    const auto& a = merged.version.level(level);
    const auto& b = oracle.version.level(level);
    ASSERT_EQ(a.size(), b.size()) << "level " << level;
    for (std::size_t t = 0; t < a.size(); ++t) {
      const SSTable& x = *a[t];
      const SSTable& y = *b[t];
      SCOPED_TRACE("level " + std::to_string(level) + " table " +
                   std::to_string(t));
      EXPECT_EQ(x.id, y.id);
      EXPECT_EQ(x.level, y.level);
      EXPECT_EQ(x.record_bytes, y.record_bytes);
      EXPECT_EQ(x.min_key, y.min_key);
      EXPECT_EQ(x.max_key, y.max_key);
      EXPECT_EQ(x.min_seq, y.min_seq);
      EXPECT_EQ(x.max_seq, y.max_seq);
      EXPECT_EQ(x.bloom.words(), y.bloom.words());
      ASSERT_EQ(x.tombstones.size(), y.tombstones.size());
      for (std::size_t i = 0; i < x.tombstones.size(); ++i) {
        EXPECT_EQ(x.tombstones[i].key, y.tombstones[i].key);
        EXPECT_EQ(x.tombstones[i].seq, y.tombstones[i].seq);
      }
      ASSERT_EQ(x.blocks.size(), y.blocks.size());
      for (std::size_t i = 0; i < x.blocks.size(); ++i) {
        const BlockHandle& hx = x.blocks[i];
        const BlockHandle& hy = y.blocks[i];
        EXPECT_EQ(hx.flash_pages, hy.flash_pages);
        EXPECT_EQ(hx.first_key, hy.first_key);
        EXPECT_EQ(hx.last_key, hy.last_key);
        EXPECT_EQ(hx.record_count, hy.record_count);
        EXPECT_EQ(hx.crc32c, hy.crc32c);
        ASSERT_EQ(hx.flash_pages.size(), hy.flash_pages.size());
        for (std::size_t p = 0; p < hx.flash_pages.size(); ++p) {
          const auto da = merged.cosmos.flash().page_data(
              merged.cosmos.flash().delinearize(hx.flash_pages[p]));
          const auto db = oracle.cosmos.flash().page_data(
              oracle.cosmos.flash().delinearize(hy.flash_pages[p]));
          ASSERT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end()))
              << "block " << i << " page " << p;
        }
      }
    }
  }
}

/// Random puts, deletes, flushes, bulk loads and L1/L2 compactions over
/// three levels, applied to both stacks alike.
void run_differential(std::uint32_t record_bytes, std::uint64_t seed) {
  CompactionConfig config;
  config.output_sst_blocks = 2;
  Stack merged(record_bytes, config);
  Stack oracle(record_bytes, config);
  support::SplitMix64 rng(seed);
  // Keys span about eight blocks of records, so tables run to several
  // blocks and outputs split.
  const std::uint64_t key_space = 8 * records_per_block(record_bytes);
  std::map<std::uint64_t, std::pair<SequenceNumber,
                                    std::optional<std::vector<std::uint8_t>>>>
      memtable;
  SequenceNumber seq = 0;
  std::uint64_t next_table_id = 1;

  auto make = [&](std::uint64_t key) {
    std::vector<std::uint8_t> record(record_bytes);
    support::store_u64(record.data(), key);
    for (std::size_t i = 8; i < record.size(); ++i) {
      record[i] = static_cast<std::uint8_t>(rng.next());
    }
    return record;
  };
  auto build_table = [&](std::uint32_t level, auto&& fill) {
    const std::uint64_t id = next_table_id++;
    for (Stack* stack : {&merged, &oracle}) {
      SSTBuilder builder(id, level, record_bytes, extract, stack->placement,
                         stack->cosmos.flash());
      fill(builder, *stack);
      stack->version.add(level, builder.finish());
    }
  };
  auto flush = [&] {
    if (memtable.empty()) return;
    build_table(1, [&](SSTBuilder& builder, Stack& stack) {
      for (const auto& [key, entry] : memtable) {
        if (entry.second.has_value()) {
          builder.add(*entry.second, entry.first);
          stack.hook(*entry.second, /*added=*/true);
        } else {
          builder.add_tombstone(Key{key, 0}, entry.first);
        }
      }
    });
    memtable.clear();
  };
  auto compact = [&](std::uint32_t level) {
    merged.compactor.compact_level(level);
    oracle_compact_level(oracle, level, record_bytes, config);
  };

  // An old bottom level: L3 holds a sorted bulk load at the lowest seq.
  {
    ++seq;
    std::vector<std::vector<std::uint8_t>> records;
    for (std::uint64_t key = 0; key < key_space; key += 1 + rng.next() % 3) {
      records.push_back(make(key));
    }
    build_table(3, [&](SSTBuilder& builder, Stack& stack) {
      for (const auto& record : records) {
        builder.add(record, seq);
        stack.hook(record, /*added=*/true);
      }
    });
  }

  for (int step = 0; step < 40; ++step) {
    const std::uint64_t op = rng.next() % 11;
    if (op == 10) {
      // Ties on (key, seq), which only the run index orders: two C1
      // tables at one seq over the same keys, the first also holding
      // tombstones at that seq for some of its own keys.
      const SequenceNumber tied = ++seq;
      const std::uint64_t base = rng.next() % (key_space - 64);
      for (int copy = 0; copy < 2; ++copy) {
        std::vector<std::vector<std::uint8_t>> records;
        for (std::uint64_t key = base; key < base + 64; key += 1 + copy) {
          records.push_back(make(key));
        }
        build_table(1, [&](SSTBuilder& builder, Stack& stack) {
          for (const auto& record : records) {
            builder.add(record, tied);
            stack.hook(record, /*added=*/true);
            const std::uint64_t key = support::get_u64(record, 0);
            if (copy == 0 && key % 3 == 0) {
              builder.add_tombstone(Key{key, 0}, tied);
            }
          }
        });
      }
    } else if (op < 6) {
      // A batch of puts and deletes over a random key window.
      const std::uint64_t base = rng.next() % key_space;
      const std::uint64_t span = 1 + rng.next() % (key_space / 2);
      const std::uint64_t count = 1 + rng.next() % 600;
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t key = (base + rng.next() % span) % key_space;
        if (rng.next() % 5 == 0) {
          memtable[key] = {++seq, std::nullopt};
        } else {
          memtable[key] = {++seq, make(key)};
        }
      }
      flush();
    } else if (op < 8) {
      compact(1);
    } else {
      compact(2);
    }
  }
  flush();
  compact(1);
  compact(2);

  // The sequence must exercise every branch of the emit loop.
  const CompactionStats& stats = merged.compactor.stats();
  EXPECT_GT(stats.compactions, 2u);
  EXPECT_GT(stats.records_purged, 0u);
  EXPECT_GT(stats.tombstones_dropped, 0u);
  expect_same_stats(stats, oracle.oracle_stats);
  EXPECT_EQ(merged.compactor.next_sst_id(), oracle.oracle_next_id);
  EXPECT_EQ(merged.cosmos.flash().pages_programmed(),
            oracle.cosmos.flash().pages_programmed());
  EXPECT_EQ(merged.cosmos.flash().pages_read(),
            oracle.cosmos.flash().pages_read());
  EXPECT_EQ(merged.cosmos.events().now(), oracle.cosmos.events().now());
  EXPECT_EQ(merged.placement.pages_allocated(),
            oracle.placement.pages_allocated());
  ASSERT_EQ(merged.hook_calls.size(), oracle.hook_calls.size());
  EXPECT_TRUE(merged.hook_calls == oracle.hook_calls);
  expect_same_tables(merged, oracle);
}

TEST(CompactionDifferential, MergeEqualsGatherAndSort) {
  for (const std::uint32_t record_bytes : {16u, 24u, 128u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("record_bytes " + std::to_string(record_bytes) +
                   " seed " + std::to_string(seed));
      run_differential(record_bytes, seed);
    }
  }
}

}  // namespace
}  // namespace ndpgen::kv
