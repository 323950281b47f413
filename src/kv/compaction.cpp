#include "kv/compaction.hpp"

#include <algorithm>

#include "kv/sst_reader.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

namespace {

/// One merged entry during compaction.
struct MergeEntry {
  Key key;
  SequenceNumber effective_seq;
  EntryType type;
  std::vector<std::uint8_t> record;  ///< Empty for tombstones.
};

}  // namespace

Compactor::Compactor(Version& version, PlacementPolicy& placement,
                     platform::FlashModel& flash, KeyExtractor extractor,
                     std::uint32_t record_bytes, CompactionConfig config,
                     bool timed)
    : version_(version),
      placement_(placement),
      flash_(flash),
      extractor_(extractor),
      record_bytes_(record_bytes),
      config_(config),
      timed_(timed) {
  NDPGEN_CHECK_ARG(static_cast<bool>(extractor_),
                   "compactor needs a key extractor");
}

std::uint64_t Compactor::level_target_bytes(std::uint32_t level) const {
  // C2 = base, C3 = base * multiplier, ...
  std::uint64_t target = kLevelBaseBytes;
  for (std::uint32_t l = 2; l < level; ++l) {
    target *= kLevelSizeMultiplier;
  }
  return target;
}

int Compactor::pick_level() const {
  if (version_.sst_count(1) > config_.l1_trigger) return 1;
  for (std::uint32_t level = 2; level < kMaxLevels; ++level) {
    std::uint64_t bytes = 0;
    for (const auto& table : version_.level(level)) {
      bytes += table->data_bytes();
    }
    if (bytes > level_target_bytes(level)) return static_cast<int>(level);
  }
  return -1;
}

bool Compactor::needs_compaction() const { return pick_level() >= 0; }

std::uint64_t Compactor::run() {
  std::uint64_t done = 0;
  int level = pick_level();
  while (level >= 0) {
    compact_level(static_cast<std::uint32_t>(level));
    ++done;
    level = pick_level();
  }
  return done;
}

void Compactor::compact_level(std::uint32_t level) {
  NDPGEN_CHECK_ARG(level >= 1 && level < kMaxLevels,
                   "cannot compact the bottom level further");
  // The flash model carries the platform's observability context.
  obs::Observability* obs = flash_.observability();
  const platform::SimTime compact_start = flash_.queue().now();
  const std::uint64_t records_in_before = stats_.records_in;
  const std::uint32_t target = level + 1;
  // Tombstones may be dropped once no deeper level could still hold an
  // older version of the key.
  bool bottom = true;
  for (std::uint32_t deeper = target + 1; deeper <= kMaxLevels; ++deeper) {
    if (version_.sst_count(deeper) != 0) {
      bottom = false;
      break;
    }
  }

  // Inputs: every SST of `level` plus the overlapping SSTs of `target`.
  std::vector<std::shared_ptr<SSTable>> inputs = version_.level(level);
  if (inputs.empty()) return;
  Key lo = Key::max();
  Key hi = Key::min();
  for (const auto& table : inputs) {
    lo = std::min(lo, table->min_key);
    hi = std::max(hi, table->max_key);
  }
  for (const auto& table : version_.overlapping(target, lo, hi)) {
    inputs.push_back(table);
  }

  // Gather all entries; newer tables (higher max_seq) win per key.
  std::vector<MergeEntry> entries;
  std::uint64_t records_in = 0;
  for (const auto& table : inputs) {
    SSTReader reader(*table, flash_, extractor_);
    reader.for_each_record([&](std::span<const std::uint8_t> record) {
      MergeEntry entry;
      entry.key = extractor_(record);
      entry.effective_seq = table->max_seq;
      entry.type = EntryType::kValue;
      entry.record.assign(record.begin(), record.end());
      entries.push_back(std::move(entry));
      ++records_in;
      if (record_hook_) record_hook_(record, /*added=*/false);
    });
    for (const auto& tombstone : table->tombstones) {
      entries.push_back(
          MergeEntry{tombstone.key, tombstone.seq, EntryType::kTombstone, {}});
    }
  }
  stats_.records_in += records_in;

  std::stable_sort(entries.begin(), entries.end(),
                   [](const MergeEntry& a, const MergeEntry& b) {
                     return a.key != b.key ? a.key < b.key
                                           : a.effective_seq > b.effective_seq;
                   });

  // Emit the newest version per key into fresh SSTs of the target level.
  std::unique_ptr<SSTBuilder> builder;
  std::vector<std::shared_ptr<SSTable>> outputs;
  std::uint64_t blocks_in_output = 0;
  const std::uint32_t records_per_output =
      records_per_block(record_bytes_) * config_.output_sst_blocks;
  std::uint64_t records_in_output = 0;

  auto open_builder = [&] {
    builder = std::make_unique<SSTBuilder>(next_id_++, target, record_bytes_,
                                           extractor_, placement_, flash_);
    blocks_in_output = 0;
    records_in_output = 0;
  };
  auto close_builder = [&] {
    if (builder != nullptr && builder->records_added() > 0) {
      outputs.push_back(builder->finish());
    }
    builder.reset();
  };

  const Key* previous_key = nullptr;
  for (const auto& entry : entries) {
    if (previous_key != nullptr && entry.key == *previous_key) {
      // An older version of a key we already emitted/suppressed: purged.
      if (entry.type == EntryType::kValue) ++stats_.records_purged;
      continue;
    }
    previous_key = &entry.key;
    if (entry.type == EntryType::kTombstone) {
      if (bottom) {
        ++stats_.tombstones_dropped;
      } else {
        if (builder == nullptr) open_builder();
        builder->add_tombstone(entry.key, entry.effective_seq);
      }
      continue;
    }
    if (builder == nullptr) open_builder();
    builder->add(entry.record, entry.effective_seq);
    if (record_hook_) record_hook_(entry.record, /*added=*/true);
    ++stats_.records_out;
    if (++records_in_output >= records_per_output) {
      close_builder();
    }
  }
  close_builder();
  (void)blocks_in_output;

  // Charge the merge I/O on the virtual clock: every input page is read
  // and every output page programmed. This is the background traffic the
  // nKV placement isolates from foreground scans (§III-B).
  if (timed_) {
    auto pending = std::make_shared<std::size_t>(0);
    auto charge_pages = [&](const std::vector<std::shared_ptr<SSTable>>& set,
                            bool is_input) {
      for (const auto& table : set) {
        for (const auto& handle : table->blocks) {
          for (const std::uint64_t page : handle.flash_pages) {
            ++*pending;
            const auto addr = flash_.delinearize(page);
            auto on_done = [pending] { --*pending; };
            if (is_input) {
              flash_.read_page(addr, std::move(on_done));
            } else {
              flash_.charge_program(addr, std::move(on_done));
            }
          }
        }
      }
    };
    charge_pages(inputs, /*is_input=*/true);
    charge_pages(outputs, /*is_input=*/false);
    while (*pending > 0 && flash_.queue().step()) {
    }
  }

  // Install: remove inputs, add outputs.
  const std::size_t output_count = outputs.size();
  for (const auto& table : inputs) {
    version_.remove(table->level, table->id);
  }
  for (auto& table : outputs) {
    version_.add(target, std::move(table));
  }
  ++stats_.compactions;

  if (obs != nullptr) {
    obs::MetricsRegistry& m = obs->metrics;
    m.add(m.counter("kv.compaction.runs"), 1);
    m.add(m.counter("kv.compaction.records_in"),
          stats_.records_in - records_in_before);
    m.add(m.counter("kv.compaction.input_tables"), inputs.size());
    m.add(m.counter("kv.compaction.output_tables"), output_count);
    if (obs->tracing()) {
      const platform::SimTime now = flash_.queue().now();
      obs->trace->complete(
          obs->trace->track("kv.compaction"),
          "L" + std::to_string(level) + "->L" + std::to_string(target),
          "kv", compact_start, now - compact_start,
          "{\"inputs\":" + std::to_string(inputs.size()) +
              ",\"outputs\":" + std::to_string(output_count) +
              ",\"records_in\":" +
              std::to_string(stats_.records_in - records_in_before) + "}");
    }
  }
}

}  // namespace ndpgen::kv
