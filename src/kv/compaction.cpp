#include "kv/compaction.hpp"

#include <algorithm>

#include "kv/block_format.hpp"
#include "kv/sst_reader.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

namespace {

/// One input data block, read once and kept for the merge.
struct InputBlock {
  std::vector<std::uint8_t> image;
  BlockTrailer trailer;
};

/// K-way merge over the sorted runs of a compaction's inputs. Each input
/// table contributes two runs, its records (every one at the table's
/// max_seq) and then its tombstones; within a run keys strictly ascend.
/// The merge yields (key ascending, seq descending, run index ascending):
/// the order a stable sort by (key, seq desc) of the runs' concatenation
/// gives, without materializing or sorting anything.
class RunMerge {
 public:
  explicit RunMerge(KeyExtractor extractor) : extractor_(extractor) {}

  /// Adds the records of `blocks` (one table, in block order) as a run.
  void add_records(const InputBlock* begin, const InputBlock* end,
                   SequenceNumber seq) {
    Run run;
    run.block = begin;
    run.block_end = end;
    run.seq = seq;
    run.index = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(run);
    if (load_record(runs_.back())) push(runs_.size() - 1);
  }

  /// Adds a table's key-sorted tombstone list as a run.
  void add_tombstones(const std::vector<Tombstone>& tombstones) {
    Run run;
    run.tombstone = tombstones.data();
    run.tombstone_end = tombstones.data() + tombstones.size();
    run.index = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(run);
    if (run.tombstone != run.tombstone_end) {
      load_tombstone(runs_.back());
      push(runs_.size() - 1);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// The current entry: its key, seq and record (empty for a tombstone).
  [[nodiscard]] const Key& key() const noexcept { return top().key; }
  [[nodiscard]] SequenceNumber seq() const noexcept { return top().seq; }
  [[nodiscard]] bool is_tombstone() const noexcept {
    return top().tombstone != nullptr;
  }
  [[nodiscard]] std::span<const std::uint8_t> record() const noexcept {
    return record_of(top());
  }

  /// Advances past the current entry.
  void next() {
    Run& run = runs_[heap_.front()];
    bool more = false;
    if (run.tombstone != nullptr) {
      more = ++run.tombstone != run.tombstone_end;
      if (more) load_tombstone(run);
    } else {
      ++run.record;
      more = load_record(run);
    }
    if (!more) {
      heap_.front() = heap_.back();
      heap_.pop_back();
    }
    if (!heap_.empty()) sift_down(0);
  }

 private:
  struct Run {
    Key key;
    SequenceNumber seq = 0;
    std::uint32_t index = 0;  ///< Tie-break between equal (key, seq).
    // A record run walks blocks; a tombstone run walks its list.
    const InputBlock* block = nullptr;
    const InputBlock* block_end = nullptr;
    std::uint32_t record = 0;
    const Tombstone* tombstone = nullptr;
    const Tombstone* tombstone_end = nullptr;
  };

  [[nodiscard]] const Run& top() const noexcept { return runs_[heap_.front()]; }

  /// Moves a record run to its next record (crossing empty and finished
  /// blocks) and loads its key; false once the run is exhausted.
  bool load_record(Run& run) {
    while (run.block != run.block_end &&
           run.record >= run.block->trailer.record_count) {
      ++run.block;
      run.record = 0;
    }
    if (run.block == run.block_end) return false;
    run.key = extractor_(record_of(run));
    return true;
  }

  static std::span<const std::uint8_t> record_of(const Run& run) noexcept {
    const std::size_t bytes = run.block->trailer.record_bytes;
    return {run.block->image.data() + run.record * bytes, bytes};
  }

  static void load_tombstone(Run& run) noexcept {
    run.key = run.tombstone->key;
    run.seq = run.tombstone->seq;
  }

  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const noexcept {
    const Run& x = runs_[a];
    const Run& y = runs_[b];
    if (x.key != y.key) return x.key < y.key;
    if (x.seq != y.seq) return x.seq > y.seq;
    return x.index < y.index;
  }

  void push(std::size_t run) {
    heap_.push_back(static_cast<std::uint32_t>(run));
    std::size_t at = heap_.size() - 1;
    while (at > 0) {
      const std::size_t parent = (at - 1) / 2;
      if (!before(heap_[at], heap_[parent])) break;
      std::swap(heap_[at], heap_[parent]);
      at = parent;
    }
  }

  void sift_down(std::size_t at) {
    const std::size_t size = heap_.size();
    while (true) {
      std::size_t best = at;
      const std::size_t left = 2 * at + 1;
      if (left < size && before(heap_[left], heap_[best])) best = left;
      if (left + 1 < size && before(heap_[left + 1], heap_[best])) {
        best = left + 1;
      }
      if (best == at) return;
      std::swap(heap_[at], heap_[best]);
      at = best;
    }
  }

  KeyExtractor extractor_;
  std::vector<Run> runs_;
  std::vector<std::uint32_t> heap_;  ///< Indices into runs_, a min-heap.
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

  // Read every input block once, in table and block order, before the
  // first output page is programmed. The images stay for the merge (the
  // reserve keeps them in place), and each table adds its two runs.
  std::size_t block_count = 0;
  for (const auto& table : inputs) block_count += table->blocks.size();
  std::vector<InputBlock> blocks;
  blocks.reserve(block_count);
  RunMerge merge(extractor_);
  std::uint64_t records_in = 0;
  for (const auto& table : inputs) {
    const std::size_t first = blocks.size();
    SSTReader reader(*table, flash_, extractor_);
    for (std::uint32_t b = 0; b < table->blocks.size(); ++b) {
      InputBlock& block = blocks.emplace_back();
      block.image = reader.read_block(b);
      block.trailer = read_trailer(block.image);
      records_in += block.trailer.record_count;
      if (record_hook_) {
        for (std::uint32_t r = 0; r < block.trailer.record_count; ++r) {
          record_hook_(block_record(block.image, block.trailer, r),
                       /*added=*/false);
        }
      }
    }
    merge.add_records(blocks.data() + first, blocks.data() + blocks.size(),
                      table->max_seq);
    merge.add_tombstones(table->tombstones);
  }
  stats_.records_in += records_in;

  // Emit the newest version per key into fresh SSTs of the target level.
  std::unique_ptr<SSTBuilder> builder;
  std::vector<std::shared_ptr<SSTable>> outputs;
  const std::uint32_t records_per_output =
      records_per_block(record_bytes_) * config_.output_sst_blocks;
  std::uint64_t records_in_output = 0;

  // One builder, its block image and Bloom key buffer serve every output.
  auto open_table = [&] {
    if (builder == nullptr) {
      builder = std::make_unique<SSTBuilder>(next_id_++, target, record_bytes_,
                                             extractor_, placement_, flash_);
    } else if (!builder->open()) {
      builder->start(next_id_++);
    } else {
      return;
    }
    records_in_output = 0;
  };
  // A table opens only to take a record or a tombstone, so every open one
  // is kept: a tombstone-only output still shadows the deeper levels.
  auto close_table = [&] {
    if (builder != nullptr && builder->open()) {
      outputs.push_back(builder->finish());
    }
  };

  bool have_previous = false;
  Key previous_key;
  for (; !merge.empty(); merge.next()) {
    const Key& key = merge.key();
    if (have_previous && key == previous_key) {
      // An older version of a key we already emitted/suppressed: purged.
      if (!merge.is_tombstone()) ++stats_.records_purged;
      continue;
    }
    have_previous = true;
    previous_key = key;
    if (merge.is_tombstone()) {
      if (bottom) {
        ++stats_.tombstones_dropped;
      } else {
        open_table();
        builder->add_tombstone(key, merge.seq());
      }
      continue;
    }
    open_table();
    const std::span<const std::uint8_t> record = merge.record();
    builder->add(record, merge.seq());
    if (record_hook_) record_hook_(record, /*added=*/true);
    ++stats_.records_out;
    if (++records_in_output >= records_per_output) {
      close_table();
    }
  }
  close_table();

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
