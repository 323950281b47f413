#include "kv/db.hpp"

#include <array>
#include <cstring>
#include <unordered_set>

#include "kv/manifest.hpp"
#include "kv/sst_reader.hpp"
#include "support/bytes.hpp"
#include "support/crc32c.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

NKV::NKV(platform::CosmosPlatform& platform, DBConfig config)
    : platform_(platform),
      config_(std::move(config)),
      placement_(config_.shared_placement
                     ? config_.shared_placement
                     : std::make_shared<PlacementPolicy>(
                           platform.flash().topology(),
                           config_.level_groups)),
      memtable_(std::make_unique<MemTable>(config_.memtable_bytes)),
      compactor_(version_, *placement_, platform.flash(), config_.extractor,
                 config_.record_bytes, config_.compaction,
                 config_.timed_writes) {
  NDPGEN_CHECK_ARG(config_.record_bytes > 0, "DBConfig.record_bytes required");
  NDPGEN_CHECK_ARG(config_.extractor != nullptr,
                   "DBConfig.extractor required");
  if (platform.fault_injector().enabled()) {
    placement_->set_fault_injector(&platform.fault_injector());
  }
  if (config_.durability.enabled) {
    // Fixed construction order = deterministic meta-block reservation, so
    // a store rebuilt over the surviving flash finds its WAL and manifest
    // in the same physical blocks.
    wal_ = std::make_unique<WriteAheadLog>(platform.flash(), *placement_,
                                           kWalBlocks, config_.timed_writes);
    manifest_store_ = std::make_unique<ManifestStore>(
        platform.flash(), *placement_, kManifestSlotBlocks,
        kManifestPointerBlocks, config_.timed_writes);
  }
}

void NKV::set_record_hook(RecordHook hook) {
  record_hook_ = std::move(hook);
  // Compactions both consume and re-emit records through the same hook.
  compactor_.set_record_hook(record_hook_);
}

void NKV::charge_programs(const SSTable& table) {
  auto pending = std::make_shared<std::size_t>(0);
  auto& flash = platform_.flash();
  for (const auto& handle : table.blocks) {
    for (const std::uint64_t page : handle.flash_pages) {
      ++*pending;
      flash.charge_program(flash.delinearize(page), [pending] { --*pending; });
    }
  }
  while (*pending > 0 && flash.queue().step()) {
  }
}

void NKV::journal_put(SequenceNumber seq,
                      std::span<const std::uint8_t> record) {
  if (wal_ == nullptr) return;
  wal_->append(kWalPut, seq, record);
  wal_->sync();  // The acknowledgement point: the entry is on flash.
}

void NKV::journal_del(SequenceNumber seq, const Key& key) {
  if (wal_ == nullptr) return;
  std::array<std::uint8_t, 16> packed;
  support::store_u64(packed.data(), key.hi);
  support::store_u64(packed.data() + 8, key.lo);
  wal_->append(kWalDelete, seq, packed);
  wal_->sync();
}

void NKV::commit_manifest() {
  ManifestImage image;
  image.version = version_;
  image.last_sequence = durable_seq_;
  image.next_sst_id = std::max(next_sst_id_, compactor_.next_sst_id());
  manifest_store_->commit(image);
}

void NKV::put(std::span<const std::uint8_t> record) {
  NDPGEN_CHECK_ARG(record.size() == config_.record_bytes,
                   "record size does not match the store schema");
  const Key key = config_.extractor(record);
  const SequenceNumber seq = ++seq_;
  journal_put(seq, record);
  memtable_->put(key, seq, record);
  ++stats_.puts;
  if (config_.auto_flush && memtable_->should_flush()) {
    flush();
    if (config_.auto_compact) compact();
  }
}

void NKV::del(const Key& key) {
  const SequenceNumber seq = ++seq_;
  journal_del(seq, key);
  memtable_->del(key, seq);
  ++stats_.deletes;
  if (config_.auto_flush && memtable_->should_flush()) {
    flush();
    if (config_.auto_compact) compact();
  }
}

std::optional<std::vector<std::uint8_t>> NKV::get(const Key& key) {
  ++stats_.gets;
  // C0 first.
  if (const MemEntry* entry = memtable_->get(key)) {
    if (entry->type == EntryType::kTombstone) return std::nullopt;
    return entry->record;
  }
  // Then C1 newest-first, then C2..Ck (paper §III-A: all C1 index blocks
  // must be consulted because flushes are not compacted).
  for (const auto& table : version_.recency_ordered()) {
    if (key < table->min_key || table->max_key < key) continue;
    if (!table->bloom.may_contain(key)) continue;  // Definitely absent.
    if (const Tombstone* tombstone = table->find_tombstone(key)) {
      (void)tombstone;
      return std::nullopt;
    }
    SSTReader reader(*table, platform_.flash(), config_.extractor);
    if (auto record = reader.get(key)) return record;
  }
  return std::nullopt;
}

void NKV::flush() {
  if (memtable_->empty()) return;
  SSTBuilder builder(next_sst_id_++, /*level=*/1, config_.record_bytes,
                     config_.extractor, *placement_, platform_.flash());
  for (auto it = memtable_->begin(); it.valid(); it.next()) {
    if (it.value().type == EntryType::kTombstone) {
      builder.add_tombstone(it.key(), it.value().seq);
    } else {
      builder.add(it.value().record, it.value().seq);
      if (record_hook_) record_hook_(it.value().record, /*added=*/true);
    }
  }
  auto table = builder.finish();
  if (config_.timed_writes) charge_programs(*table);
  version_.add(1, std::move(table));
  memtable_ = std::make_unique<MemTable>(config_.memtable_bytes);
  ++stats_.flushes;
  if (manifest_store_ != nullptr) {
    // Every journaled entry is now in an SST: commit the new Version, then
    // truncate the log. A crash between the two replays a WAL whose entries
    // are all <= durable_seq_ — recovery skips them as already covered.
    durable_seq_ = seq_;
    commit_manifest();
    wal_->reset();
  }
}

std::uint64_t NKV::compact() {
  compactor_.set_next_sst_id(std::max(compactor_.next_sst_id(),
                                      next_sst_id_ + 1'000'000));
  const std::uint64_t ran = compactor_.run();
  if (ran > 0 && manifest_store_ != nullptr) {
    // Compaction rewrites SSTs without changing logical content: commit the
    // new Version (durable_seq_ unchanged) but leave the WAL alone. Until
    // this commit lands, recovery restores the pre-compaction Version and
    // garbage-collects the half-written outputs as orphans.
    commit_manifest();
  }
  return ran;
}

BulkLoad::BulkLoad(NKV& db, std::uint32_t level,
                   std::uint64_t records_per_sst)
    : db_(db), level_(level), records_per_sst_(records_per_sst) {
  NDPGEN_CHECK_ARG(records_per_sst > 0, "records_per_sst must be > 0");
}

std::span<std::uint8_t> BulkLoad::slot() {
  if (builder_ == nullptr) {
    builder_ = std::make_unique<SSTBuilder>(
        db_.next_sst_id_++, level_, db_.config_.record_bytes,
        db_.config_.extractor, *db_.placement_, db_.platform_.flash(),
        records_per_sst_);
    in_current_ = 0;
  } else if (!builder_->open()) {
    builder_->start(db_.next_sst_id_++);
    in_current_ = 0;
  }
  slot_ = builder_->slot();
  return slot_;
}

void BulkLoad::commit() {
  builder_->commit(++db_.seq_);
  if (db_.record_hook_) db_.record_hook_(slot_, /*added=*/true);
  if (++in_current_ >= records_per_sst_) {
    db_.version_.add(level_, builder_->finish());
  }
}

void BulkLoad::finish() {
  if (builder_ != nullptr && builder_->open() &&
      builder_->records_added() > 0) {
    db_.version_.add(level_, builder_->finish());
  }
  builder_.reset();
  if (db_.manifest_store_ != nullptr && db_.memtable_->empty()) {
    db_.durable_seq_ = db_.seq_;
    db_.commit_manifest();
    db_.wal_->reset();
  } else if (db_.manifest_store_ != nullptr) {
    // Un-flushed MemTable entries are only covered by the WAL: commit the
    // bulk-loaded tables without advancing the durable bound or truncating.
    db_.commit_manifest();
  }
}

BulkLoad NKV::bulk_load(std::uint32_t level, std::uint64_t records_per_sst) {
  return BulkLoad(*this, level, records_per_sst);
}

void NKV::bulk_load_sorted(
    std::uint32_t level,
    const std::function<bool(std::vector<std::uint8_t>&)>& next_record,
    std::uint64_t records_per_sst) {
  BulkLoad load = bulk_load(level, records_per_sst);
  std::vector<std::uint8_t> record;
  while (next_record(record)) {
    NDPGEN_CHECK_ARG(record.size() == config_.record_bytes,
                     "record size does not match the block geometry");
    std::memcpy(load.slot().data(), record.data(), record.size());
    load.commit();
  }
  load.finish();
}

RecoveryReport NKV::recover(const RecoveryOptions& options) {
  NDPGEN_CHECK_ARG(manifest_store_ != nullptr,
                   "recover() requires DurabilityConfig.enabled");
  NDPGEN_CHECK_ARG(memtable_->empty() && stats_.puts == 0,
                   "recover() must run on a freshly constructed store");
  recovering_ = true;
  auto& flash = platform_.flash();
  const platform::SimTime start = platform_.events().now();
  RecoveryReport report;

  // 1. Interrupted erases first: an unstable block holds no trustworthy
  // data and may sit in any region (an aborted WAL truncation or manifest
  // slot reclaim), so finish the erase before scanning anything.
  const platform::FlashTopology& topo = flash.topology();
  for (const std::uint32_t global : flash.unstable_blocks()) {
    const std::uint64_t linear =
        (std::uint64_t{global % topo.blocks_per_lun} * topo.pages_per_block) *
            topo.total_luns() +
        global / topo.blocks_per_lun;
    flash.erase_block_immediate(flash.delinearize(linear));
    ++report.unstable_blocks_erased;
  }

  // 2. Newest fully-committed manifest (half-committed ones roll back).
  const ManifestRecoverResult mres = manifest_store_->recover();
  report.manifest_found = mres.found;
  report.manifest_commit_seq = mres.commit_seq;
  report.manifest_rollbacks = mres.rollbacks;
  std::unordered_set<std::uint64_t> live;
  if (mres.found) {
    version_ = mres.image.version;
    durable_seq_ = mres.image.last_sequence;
    seq_ = mres.image.last_sequence;
    next_sst_id_ = std::max<std::uint64_t>(1, mres.image.next_sst_id);
    for (const auto& table : version_.recency_ordered()) {
      NDPGEN_CHECK_ARG(table->record_bytes == config_.record_bytes,
                       "manifest schema does not match this store");
      ++report.tables_restored;
      next_sst_id_ = std::max(next_sst_id_, table->id + 1);
      seq_ = std::max(seq_, table->max_seq);
      // 3. Committed data must be whole: the commit protocol orders page
      // programs before the manifest commit, so every referenced block has
      // to pass its per-block CRC32C.
      SSTReader reader(*table, flash, config_.extractor);
      for (std::uint32_t b = 0;
           b < static_cast<std::uint32_t>(table->blocks.size()); ++b) {
        const BlockHandle& handle = table->blocks[b];
        bool torn = false;
        for (const std::uint64_t page : handle.flash_pages) {
          placement_->note_existing_page(page);
          live.insert(page);
          if (flash.page_torn(page)) torn = true;
        }
        if (!torn && handle.crc32c != 0) {
          const std::vector<std::uint8_t> block = reader.read_block(b);
          torn = support::crc32c(block) != handle.crc32c;
        }
        if (torn) {
          ++report.torn_sst_blocks;
        } else {
          ++report.sst_blocks_verified;
        }
      }
    }
  }

  // 4. Orphan GC: written pages referenced by neither the committed
  // manifest nor a metadata region belong to flushes/compactions that
  // never committed — including the torn page of an interrupted program.
  // Discarding them guarantees no torn state is reachable afterwards.
  for (const std::uint64_t page : flash.written_pages()) {
    if (placement_->is_meta_page(page) || live.contains(page)) continue;
    if (flash.page_torn(page)) ++report.torn_pages_discarded;
    flash.discard_page(page);
    ++report.orphan_pages_discarded;
  }

  if (options.mid_recovery_probe) options.mid_recovery_probe();

  // 5. WAL tail: entries past the durable bound were acknowledged but
  // never flushed — replay them into the MemTable with their original
  // sequence numbers. The CRC chain cuts the log at the first torn page,
  // which only ever holds un-acknowledged entries.
  const WalReplayResult wres = wal_->replay();
  report.wal_torn_pages = wres.torn_pages;
  std::vector<const WalEntry*> survivors;
  for (const WalEntry& entry : wres.entries) {
    if (entry.seq <= durable_seq_) {
      ++report.wal_entries_skipped;
      continue;
    }
    if (entry.type == kWalPut) {
      NDPGEN_CHECK(entry.payload.size() == config_.record_bytes,
                   "WAL record does not match the store schema");
      memtable_->put(config_.extractor(entry.payload), entry.seq,
                     entry.payload);
    } else {
      NDPGEN_CHECK(entry.payload.size() == 16, "malformed WAL delete entry");
      memtable_->del(Key{support::get_u64(entry.payload, 0),
                         support::get_u64(entry.payload, 8)},
                     entry.seq);
    }
    seq_ = std::max(seq_, entry.seq);
    survivors.push_back(&entry);
    ++report.wal_entries_replayed;
  }

  // 6. NAND pages are never reprogrammed, so the log cannot resume past a
  // torn tail: rewrite it fresh with exactly the surviving entries. After
  // this the store is crash-consistent again without a flush.
  wal_->reset();
  for (const WalEntry* entry : survivors) {
    wal_->append(entry->type, entry->seq, entry->payload);
  }
  wal_->sync();

  // Charge the simulated read cost of the CRC-verification scan over every
  // committed SST page (the dominant term) so recovery time is a
  // first-class measurement.
  {
    auto pending = std::make_shared<std::size_t>(0);
    for (const std::uint64_t page : live) {
      ++*pending;
      flash.read_page(flash.delinearize(page), [pending] { --*pending; });
    }
    while (*pending > 0 && flash.queue().step()) {
    }
  }
  report.elapsed = platform_.events().now() - start;
  recovering_ = false;

  auto& metrics = platform_.observability().metrics;
  metrics.add(metrics.counter("kv.recovery.runs"));
  metrics.add(metrics.counter("kv.recovery.manifest_rollbacks"),
              report.manifest_rollbacks);
  metrics.add(metrics.counter("kv.recovery.tables_restored"),
              report.tables_restored);
  metrics.add(metrics.counter("kv.recovery.sst_blocks_verified"),
              report.sst_blocks_verified);
  metrics.add(metrics.counter("kv.recovery.torn_sst_blocks"),
              report.torn_sst_blocks);
  metrics.add(metrics.counter("kv.recovery.wal_entries_replayed"),
              report.wal_entries_replayed);
  metrics.add(metrics.counter("kv.recovery.wal_entries_skipped"),
              report.wal_entries_skipped);
  metrics.add(metrics.counter("kv.recovery.wal_torn_pages"),
              report.wal_torn_pages);
  metrics.add(metrics.counter("kv.recovery.orphan_pages_discarded"),
              report.orphan_pages_discarded);
  metrics.add(metrics.counter("kv.recovery.torn_pages_discarded"),
              report.torn_pages_discarded);
  metrics.add(metrics.counter("kv.recovery.unstable_blocks_erased"),
              report.unstable_blocks_erased);
  metrics.set(metrics.gauge("kv.recovery.elapsed_ns"), report.elapsed);
  auto& obs = platform_.observability();
  if (obs.tracing()) {
    obs.trace->complete(
        obs.trace->track("kv.recovery"), "recover", "kv", start,
        report.elapsed,
        "{\"wal_replayed\":" + std::to_string(report.wal_entries_replayed) +
            ",\"orphans\":" + std::to_string(report.orphan_pages_discarded) +
            ",\"rollbacks\":" + std::to_string(report.manifest_rollbacks) +
            "}");
  }
  return report;
}

}  // namespace ndpgen::kv
