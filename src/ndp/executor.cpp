#include "ndp/executor.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "fault/fault_injector.hpp"
#include "kv/placement.hpp"
#include "kv/sst_reader.hpp"
#include "obs/obs.hpp"
#include "support/crc32c.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace ndpgen::ndp {

namespace {

/// Per-result software finalization cost on the device firmware (hash-set
/// dedup + copy-out). It models the firmware, not this simulator: every
/// result is charged, even where the scan merge skips the dedup set
/// because the result's table overlaps no other.
constexpr platform::SimTime kFinalizePerResult = 35;  // ns

/// Per-block media flags accumulated from the timed page reads.
constexpr std::uint8_t kMediaRetried = 1;
constexpr std::uint8_t kMediaUncorrectable = 2;

/// Next key in the 128-bit lexicographic order (saturates at Key::max()).
kv::Key key_successor(const kv::Key& key) noexcept {
  if (key.lo != ~std::uint64_t{0}) return kv::Key{key.hi, key.lo + 1};
  if (key.hi != ~std::uint64_t{0}) return kv::Key{key.hi + 1, 0};
  return key;
}

/// True when `key` falls inside one of the sorted, disjoint ranges.
bool key_in_ranges(const kv::Key& key,
                   const std::vector<KeyRange>& ranges) noexcept {
  for (const auto& range : ranges) {
    if (key < range.first) return false;  // Sorted: later ranges start higher.
    if (!(range.second < key)) return true;
  }
  return false;
}

/// True when [first, last] intersects any of the sorted, disjoint ranges.
bool block_in_ranges(const kv::Key& first, const kv::Key& last,
                     const std::vector<KeyRange>& ranges) noexcept {
  for (const auto& range : ranges) {
    if (last < range.first) return false;
    if (!(range.second < first)) return true;
  }
  return false;
}

/// Attributes a scan's [t0, end] window to the device-side phases via a
/// clamped monotone boundary chain: each stage boundary is forced into
/// [previous boundary, end], so every phase width is non-negative and the
/// widths sum EXACTLY to end - t0 no matter how the stages overlap. The
/// clamps are no-ops on the normal fully-ordered timeline (command ->
/// flash -> pipeline -> finalize -> transfer).
obs::PhaseBreakdown attribute_scan_phases(
    platform::SimTime t0, platform::SimTime cmd_done,
    platform::SimTime flash_end, platform::SimTime pipe_end,
    platform::SimTime finalize_end, platform::SimTime end) {
  obs::PhaseBreakdown phases;
  const platform::SimTime c1 = std::clamp(cmd_done, t0, end);
  const platform::SimTime c2 = std::clamp(flash_end, c1, end);
  const platform::SimTime c3 = std::clamp(pipe_end, c2, end);
  const platform::SimTime c4 = std::clamp(finalize_end, c3, end);
  phases[obs::RequestPhase::kDoorbell] = c1 - t0;
  phases[obs::RequestPhase::kFlash] = c2 - c1;
  phases[obs::RequestPhase::kPe] = c3 - c2;
  phases[obs::RequestPhase::kMerge] = c4 - c3;
  phases[obs::RequestPhase::kTransfer] = end - c4;
  return phases;
}

/// Publishes the device-side phase widths as "ndp.scan.phase.*_ns"
/// counters (queueing is a host-service phase and stays out).
void publish_scan_phases(obs::MetricsRegistry& m,
                         const obs::PhaseBreakdown& phases) {
  for (std::size_t i = 1; i < obs::kRequestPhaseCount; ++i) {
    const auto phase = static_cast<obs::RequestPhase>(i);
    m.add(m.counter("ndp.scan.phase." +
                    std::string(obs::phase_name(phase)) + "_ns"),
          phases[phase]);
  }
}

/// `,"ctx":<trace id>` while a request context is active, else empty.
std::string ctx_arg(const obs::Observability& obs) {
  return obs.request_ctx.active()
             ? ",\"ctx\":" + std::to_string(obs.request_ctx.trace_id)
             : std::string();
}

/// Publishes an operation's fault accounting as "<prefix>.*" counters.
/// Called only under a fault profile so the default metrics dump stays
/// byte-identical to a fault-free build.
void publish_reliability(obs::MetricsRegistry& m, const std::string& prefix,
                         const ReliabilityStats& r) {
  m.add(m.counter(prefix + ".blocks_retried"), r.blocks_retried);
  m.add(m.counter(prefix + ".blocks_degraded_to_software"),
        r.blocks_degraded_to_software);
  m.add(m.counter(prefix + ".uncorrectable_blocks"), r.uncorrectable_blocks);
  m.add(m.counter(prefix + ".integrity_blocks"), r.integrity_blocks);
}

/// Recency-aware tombstone suppression for the scan merge: a tombstone
/// hides only versions stored in tables OLDER than its own, so a key that
/// was deleted and later re-written stays visible. Blocks reach the merge
/// in recency order; entering a block's table first admits the tombstones
/// of every strictly newer table.
class TombstoneFilter {
 public:
  explicit TombstoneFilter(std::vector<std::shared_ptr<kv::SSTable>> tables)
      : tables_(std::move(tables)) {}

  void enter(const kv::SSTable* table) {
    while (next_ < tables_.size() && tables_[next_].get() != table) {
      for (const auto& tombstone : tables_[next_]->tombstones) {
        deleted_.insert(tombstone.key);
      }
      ++next_;
    }
  }

  [[nodiscard]] bool hides(const kv::Key& key) const {
    return deleted_.contains(key);
  }

 private:
  std::vector<std::shared_ptr<kv::SSTable>> tables_;
  std::size_t next_ = 0;
  std::unordered_set<kv::Key, kv::KeyHash> deleted_;
};

/// The tables whose [min_key, max_key] overlaps another table's (a
/// tombstone widens its table's range). SST keys strictly ascend, so only
/// these tables can share a key with another one: the scan merge dedups
/// just their results.
std::unordered_set<const kv::SSTable*> overlapping_tables(
    const std::vector<std::shared_ptr<kv::SSTable>>& tables) {
  std::vector<const kv::SSTable*> by_min;
  by_min.reserve(tables.size());
  for (const auto& table : tables) by_min.push_back(table.get());
  std::sort(by_min.begin(), by_min.end(),
            [](const kv::SSTable* a, const kv::SSTable* b) {
              return a->min_key < b->min_key;
            });
  // In min_key order a table overlaps an earlier one iff it starts at or
  // before the farthest max_key so far, and a later one iff the next
  // table starts at or before its own max_key.
  std::unordered_set<const kv::SSTable*> overlapping;
  kv::Key reach = kv::Key::min();
  for (std::size_t i = 0; i < by_min.size(); ++i) {
    const kv::SSTable* table = by_min[i];
    const bool earlier = i > 0 && !(reach < table->min_key);
    const bool later =
        i + 1 < by_min.size() && !(table->max_key < by_min[i + 1]->min_key);
    if (earlier || later) overlapping.insert(table);
    reach = std::max(reach, table->max_key);
  }
  return overlapping;
}

/// Appends each sink record to `results` as its own vector (none for
/// nullptr): the adapter behind the vector-collecting scan overloads.
HybridExecutor::RecordSink append_to(
    std::vector<std::vector<std::uint8_t>>* results) {
  if (results == nullptr) return {};
  return [results](std::span<const std::uint8_t> record) {
    results->emplace_back(record.begin(), record.end());
  };
}

/// Where a block runs.
enum class Route : std::uint8_t {
  kPe,    ///< A PE shard.
  kArm,   ///< SoftwareNdp on the device ARM (also the degraded path).
  kHost,  ///< The classical host path: the block crosses NVMe first.
};

}  // namespace

/// Per-block flash completion times and media flags of one read batch.
struct HybridExecutor::BlockReads {
  std::vector<platform::SimTime> ready;
  std::vector<std::uint8_t> media;
  std::uint64_t bytes = 0;
};

/// One checked, assembled and routed block.
struct HybridExecutor::Routed {
  std::vector<std::uint8_t> block;
  std::uint64_t payload = 0;
  Route route = Route::kArm;
  platform::SimTime penalty = 0;  ///< Recovery pass + watchdog horizon.
  bool hang = false;              ///< PE hung: reprogram it before reuse.
  bool via_software = false;      ///< Partial block on a static-geometry PE.
};

/// What one operation does with each block.
struct HybridExecutor::Plan {
  bool aggregate = false;  ///< Accumulate instead of collecting records.
  std::vector<BoundPredicate> bound;        ///< The PE/ARM conjunction.
  std::vector<BoundPredicate> post_filter;  ///< Beyond the PE's stages.
  hwgen::AggregateFold fold;       ///< The aggregate's op on its field.
  std::uint32_t field_select = 0;  ///< Aggregated field, mux order.
};

/// What running one block produced.
struct HybridExecutor::Outcome {
  platform::SimTime start = 0;
  platform::SimTime cost = 0;
  std::uint64_t tuples_in = 0;
  std::uint64_t matched = 0;  ///< Survivors, or tuples folded (aggregate).
  std::uint64_t pe_cycles = 0;
  /// The surviving output-layout records back to back, `stride` bytes
  /// each.
  std::vector<std::uint8_t> survivors;
  std::uint32_t stride = 0;
  /// Aggregate: the PE's block accumulator, or the seed off the PE.
  std::uint64_t block_result = 0;
  /// Aggregate off the PE: the matching tuples' widened values, in tuple
  /// order.
  std::vector<std::uint64_t> values;
};

/// The timing and accounting of a SCAN/AGGREGATE pipeline run.
struct HybridExecutor::PipelineRun {
  platform::SimTime t0 = 0;
  platform::SimTime cmd_done = 0;
  platform::SimTime flash_done = 0;  ///< Relative to t0, like ScanStats.
  platform::SimTime pipe_end = 0;
  std::uint32_t shards = 1;
  std::uint64_t bytes_from_flash = 0;
  std::uint64_t pe_phase_cycles = 0;
  std::uint64_t via_software = 0;
  ReliabilityStats reliability;
};

HybridExecutor::HybridExecutor(kv::NKV& db,
                               const analysis::AnalyzedParser& parser,
                               const hwgen::OperatorSet& operators,
                               ExecutorConfig config)
    : db_(db),
      parser_(parser),
      operators_(operators),
      config_(std::move(config)),
      software_(parser_, operators_, db.platform().timing()) {
  if (config_.mode == ExecMode::kHardware) {
    NDPGEN_CHECK_ARG(config_.pe_indices.size() == 1,
                     "hardware execution needs exactly one PE index "
                     "(num_pes sets the shard count)");
    auto& platform = db.platform();
    const hwgen::PEDesign& design =
        platform.pe_design(config_.pe_indices.front());
    NDPGEN_CHECK_ARG(
        design.parser.input.storage_bits == parser_.input.storage_bits,
        "PE input layout does not match the executor's parser");
    // One thread-confined driver per shard, built once and reused by
    // every call (each call resets its per-call state).
    for (std::uint32_t k = 0; k < effective_shards(); ++k) {
      shards_.push_back(std::make_unique<PeShard>(
          k, design, platform.timing(), platform.config().axi,
          /*arm_watchdog=*/faults_enabled(), /*enable_trace=*/false,
          obs::RequestContext{}, config_.sim_mode));
    }
  }
}

std::vector<HybridExecutor::BlockRef> HybridExecutor::collect_blocks() const {
  std::vector<BlockRef> blocks;
  for (const auto& table : db_.version().recency_ordered()) {
    for (std::uint32_t i = 0; i < table->blocks.size(); ++i) {
      blocks.push_back(BlockRef{table.get(), i});
    }
  }
  return blocks;
}

void HybridExecutor::check_store_ready() const {
  if (db_.recovering()) {
    ndpgen::raise(ErrorKind::kStorage,
                  "NDP offload refused: store is mid-recovery (retry after "
                  "recover() completes)");
  }
}

ScanStats HybridExecutor::scan(
    const std::vector<FilterPredicate>& predicates,
    std::vector<std::vector<std::uint8_t>>* results) {
  return scan(predicates, append_to(results));
}

ScanStats HybridExecutor::range_scan(
    const kv::Key& lo, const kv::Key& hi,
    const std::vector<FilterPredicate>& predicates,
    std::vector<std::vector<std::uint8_t>>* results) {
  return range_scan(lo, hi, predicates, append_to(results));
}

ScanStats HybridExecutor::multi_range_scan(
    const std::vector<KeyRange>& ranges,
    const std::vector<FilterPredicate>& predicates,
    std::vector<std::vector<std::uint8_t>>* results) {
  return multi_range_scan(ranges, predicates, append_to(results));
}

ScanStats HybridExecutor::scan(const std::vector<FilterPredicate>& predicates,
                               const RecordSink& sink) {
  check_store_ready();
  return scan_blocks(collect_blocks(), predicates, sink, {});
}

ScanStats HybridExecutor::range_scan(
    const kv::Key& lo, const kv::Key& hi,
    const std::vector<FilterPredicate>& predicates, const RecordSink& sink) {
  check_store_ready();
  NDPGEN_CHECK_ARG(!(hi < lo), "range_scan needs lo <= hi");
  NDPGEN_CHECK_ARG(static_cast<bool>(config_.result_key_extractor),
                   "range_scan requires result_key_extractor to enforce "
                   "the key bounds on survivors");
  auto& arm = db_.platform().arm();
  // Index pruning: only tables and blocks whose key range intersects
  // [lo, hi]. The index metadata lives in device DRAM; each consulted
  // table costs one index probe.
  std::vector<BlockRef> blocks;
  for (const auto& table : db_.version().recency_ordered()) {
    if (table->max_key < lo || hi < table->min_key) continue;
    arm.index_probe(std::max<std::size_t>(std::size_t{1},
                                          table->blocks.size()));
    for (std::uint32_t i = 0; i < table->blocks.size(); ++i) {
      const auto& handle = table->blocks[i];
      if (handle.last_key < lo || hi < handle.first_key) continue;
      blocks.push_back(BlockRef{table.get(), i});
    }
  }
  return scan_blocks(blocks, predicates, sink, {KeyRange{lo, hi}});
}

ScanStats HybridExecutor::multi_range_scan(
    const std::vector<KeyRange>& ranges,
    const std::vector<FilterPredicate>& predicates, const RecordSink& sink) {
  check_store_ready();
  NDPGEN_CHECK_ARG(!ranges.empty(),
                   "multi_range_scan needs at least one key range");
  NDPGEN_CHECK_ARG(static_cast<bool>(config_.result_key_extractor),
                   "multi_range_scan requires result_key_extractor to "
                   "enforce the key bounds on survivors");
  for (const auto& range : ranges) {
    NDPGEN_CHECK_ARG(!(range.second < range.first),
                     "multi_range_scan needs lo <= hi in every range");
  }
  // Normalize: sort by lo, merge overlapping and adjacent ranges, so block
  // pruning and the per-record filter see disjoint sorted spans and a
  // coalesced batch of touching tenant windows costs one span.
  std::vector<KeyRange> spans = ranges;
  std::sort(spans.begin(), spans.end());
  std::vector<KeyRange> merged;
  for (const auto& range : spans) {
    if (!merged.empty() &&
        !(key_successor(merged.back().second) < range.first)) {
      merged.back().second = std::max(merged.back().second, range.second);
    } else {
      merged.push_back(range);
    }
  }

  auto& arm = db_.platform().arm();
  // Index pruning against the span set, mirroring range_scan: each
  // consulted table costs one index probe regardless of span count — the
  // whole point of coalescing is that the batch shares the index walk.
  std::vector<BlockRef> blocks;
  for (const auto& table : db_.version().recency_ordered()) {
    if (table->max_key < merged.front().first ||
        merged.back().second < table->min_key) {
      continue;
    }
    arm.index_probe(std::max<std::size_t>(std::size_t{1},
                                          table->blocks.size()));
    for (std::uint32_t i = 0; i < table->blocks.size(); ++i) {
      const auto& handle = table->blocks[i];
      if (!block_in_ranges(handle.first_key, handle.last_key, merged)) {
        continue;
      }
      blocks.push_back(BlockRef{table.get(), i});
    }
  }

  obs::MetricsRegistry& m = db_.platform().observability().metrics;
  m.add(m.counter("ndp.scan.range_batches"), 1);
  m.add(m.counter("ndp.scan.ranges"), ranges.size());
  m.add(m.counter("ndp.scan.merged_spans"), merged.size());
  return scan_blocks(blocks, predicates, sink, merged);
}

std::uint32_t HybridExecutor::effective_shards() const noexcept {
  // The classical path ships whole blocks to the host; there is no
  // device-side PE fabric to shard over.
  if (config_.mode == ExecMode::kHostClassic) return 1;
  return std::max<std::uint32_t>(1, config_.num_pes);
}

bool HybridExecutor::faults_enabled() const {
  const fault::FaultInjector* injector =
      db_.platform().flash().fault_injector();
  return injector != nullptr && injector->enabled();
}

HybridExecutor::BlockReads HybridExecutor::read_blocks(
    const std::vector<BlockRef>& blocks) {
  auto& queue = db_.platform().events();
  auto& flash = db_.platform().flash();
  BlockReads reads;
  reads.ready.assign(blocks.size(), 0);
  reads.media.assign(blocks.size(), 0);
  std::vector<std::size_t> remaining(blocks.size(), 0);
  std::size_t pending = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& handle = blocks[b].table->blocks[blocks[b].block_index];
    remaining[b] = handle.flash_pages.size();
    if (remaining[b] > 0) ++pending;
    for (const std::uint64_t page : handle.flash_pages) {
      flash.read_page_checked(
          flash.delinearize(page),
          [&reads, &remaining, &pending, &queue,
           b](const platform::PageReadResult& r) {
            if (r.retries > 0) reads.media[b] |= kMediaRetried;
            if (r.uncorrectable) reads.media[b] |= kMediaUncorrectable;
            if (--remaining[b] == 0) {
              reads.ready[b] = queue.now();
              --pending;
            }
          });
    }
    reads.bytes += handle.flash_pages.size() * flash.topology().page_bytes;
  }
  while (pending > 0 && queue.step()) {
  }
  NDPGEN_CHECK(pending == 0, "flash read did not complete");
  return reads;
}

HybridExecutor::Routed HybridExecutor::assemble_and_route(
    const BlockRef& ref, std::uint8_t media, std::uint32_t shard,
    ReliabilityStats& reliability) {
  const auto& timing = db_.platform().timing();
  kv::SSTReader reader(*ref.table, db_.platform().flash(),
                       db_.config().extractor);
  Routed item;
  // Checked block assembly: an uncorrectable page, or a checksum mismatch
  // from an ECC miscorrection, routes the block through the firmware
  // recovery pass (soft-decision re-read) instead of aborting the
  // operation — degraded, never failed.
  bool recovered = (media & kMediaUncorrectable) != 0;
  if (auto checked = reader.read_block_checked(ref.block_index);
      checked.ok()) {
    item.block = std::move(checked).value();
  } else {
    recovered = true;
    item.block = reader.reread_block_recovered(ref.block_index);
    // Transient miscorrections clear on the recovery pass; content that
    // still fails the index CRC is rotten on flash itself.
    const kv::BlockHandle& handle = ref.table->blocks[ref.block_index];
    if (handle.crc32c != 0 && support::crc32c(item.block) != handle.crc32c) {
      ++reliability.integrity_blocks;
    }
  }
  if ((media & kMediaRetried) != 0) ++reliability.blocks_retried;
  item.payload = kv::block_payload_bytes(kv::read_trailer(item.block));

  switch (config_.mode) {
    case ExecMode::kHardware: item.route = Route::kPe; break;
    case ExecMode::kSoftware: item.route = Route::kArm; break;
    case ExecMode::kHostClassic: item.route = Route::kHost; break;
  }
  if (recovered) {
    ++reliability.uncorrectable_blocks;
    item.penalty += timing.flash_recovery_latency;
    if (item.route == Route::kPe) {
      // The recovered copy is firmware-assembled; process it on the
      // trusted software path rather than re-staging it for the PE.
      item.route = Route::kArm;
      ++reliability.blocks_degraded_to_software;
    }
  }
  if (item.route == Route::kPe) {
    const std::uint32_t static_payload =
        shards_.front()->design().static_payload_bytes;
    if (static_payload != 0 && item.payload != static_payload) {
      // Partially filled block on a hand-crafted (static-geometry) PE:
      // the firmware routes it through the software path.
      item.route = Route::kArm;
      item.via_software = true;
    }
  }
  if (item.route == Route::kPe && faults_enabled() &&
      db_.platform().flash().fault_injector()->next_shard_pe_hang(shard)) {
    // The injected hang makes no ready/valid progress; the kernel
    // watchdog fires, firmware resets the PE (it must be reconfigured)
    // and reroutes the block to software.
    item.penalty += timing.pe_cycles_to_ns(timing.pe_watchdog_cycles);
    item.hang = true;
    item.route = Route::kArm;
    ++reliability.blocks_degraded_to_software;
  }
  return item;
}

HybridExecutor::Outcome HybridExecutor::run_block(const Routed& item,
                                                  const Plan& plan,
                                                  PeShard* shard) const {
  const auto& timing = db_.platform().timing();
  Outcome out;
  if (item.route == Route::kPe) {
    // The PE reads the block where the flash DMA staged it. Cost =
    // dispatch overhead + PE cycles.
    auto result = shard->process_block(
        std::span<const std::uint8_t>(item.block).first(item.payload),
        plan.bound, /*collect=*/!plan.aggregate,
        /*reconfigure=*/!shard->configured());
    out.cost = result.overhead + result.pe_time;
    out.pe_cycles = result.stats.cycles;
    out.tuples_in = result.stats.tuples_in;
    if (plan.aggregate) {
      out.matched = result.stats.agg_folded;
      out.block_result = result.stats.agg_result;
      return out;
    }
    out.matched = result.stats.tuples_out;
    out.survivors = std::move(result.records);
    out.stride = shard->design().parser.output.storage_bytes();
  } else if (plan.aggregate) {
    // Filter + fold input on the ARM core (or the host CPU).
    const kv::BlockTrailer trailer = kv::read_trailer(item.block);
    out.block_result = plan.fold.seed();
    for (std::uint32_t i = 0; i < trailer.record_count; ++i) {
      const auto record = kv::block_record(item.block, trailer, i);
      if (!matches(parser_.plan, operators_, record, plan.bound)) continue;
      out.values.push_back(
          plan.fold.widen(parser_.plan.extract(record, plan.field_select)));
    }
    out.tuples_in = trailer.record_count;
    out.matched = out.values.size();
    out.cost =
        item.route == Route::kHost
            ? timing.host_io_stack_per_block +
                  timing.nvme_transfer_time(kv::kDataBlockBytes) +
                  timing.host_parse_time(item.payload)
            : software_.block_cost(item.payload, trailer.record_count,
                                   static_cast<std::uint32_t>(
                                       plan.bound.size()),
                                   /*tuples_out=*/0) +
                  out.matched * timing.arm_predicate_per_tuple;
    return out;
  } else {
    auto result = software_.filter_block(item.block, plan.bound, true);
    out.tuples_in = result.tuples_in;
    out.matched = result.tuples_out;
    out.survivors = std::move(result.records);
    out.stride = parser_.plan.output_bytes();
    // Classical path (Fig. 1, left): the whole block crosses the
    // intermediate layers and the NVMe link; the host CPU filters.
    out.cost = item.route == Route::kHost
                   ? timing.host_io_stack_per_block +
                         timing.nvme_transfer_time(kv::kDataBlockBytes) +
                         timing.host_parse_time(item.payload) +
                         result.tuples_in * plan.bound.size() *
                             (timing.arm_predicate_per_tuple / 3)
                   : result.arm_cost;
  }
  if (!plan.post_filter.empty()) {
    // Software post-filter for predicates beyond the PE's chain length
    // ([1]-style single-stage PEs cannot chain predicates). Compacts the
    // survivors in place.
    out.cost += out.matched * plan.post_filter.size() *
                timing.arm_predicate_per_tuple;
    std::size_t kept = 0;
    for (std::size_t at = 0; at < out.survivors.size(); at += out.stride) {
      const auto record =
          std::span<const std::uint8_t>(out.survivors).subspan(at, out.stride);
      if (!matches(parser_.plan, operators_, record, plan.post_filter)) {
        continue;
      }
      if (kept != at) {
        std::memcpy(out.survivors.data() + kept, record.data(), out.stride);
      }
      kept += out.stride;
    }
    out.survivors.resize(kept);
    out.matched = kept / out.stride;
  }
  return out;
}

void HybridExecutor::begin_shards(std::uint32_t count, hwgen::AggOp op,
                                  std::uint32_t field_select) {
  const obs::Observability& obs = db_.platform().observability();
  for (std::uint32_t k = 0; k < count; ++k) {
    PeShard& shard = *shards_[k];
    shard.begin_call(obs.request_ctx, obs.tracing());
    if (shard.supports_aggregation()) shard.set_aggregate(op, field_select);
  }
}

void HybridExecutor::merge_shard_obs(std::uint32_t count) {
  obs::Observability& obs = db_.platform().observability();
  for (std::uint32_t k = 0; k < count; ++k) {
    obs.metrics.merge_from(shards_[k]->metrics());
    if (obs.tracing()) {
      obs.trace->append_from(shards_[k]->trace(),
                             "shard" + std::to_string(k) + ".");
    }
  }
}

HybridExecutor::PipelineRun HybridExecutor::run_pipeline(
    const std::vector<BlockRef>& blocks, const Plan& plan,
    std::uint32_t shard_count, const BlockFold& fold) {
  auto& platform = db_.platform();
  auto& queue = platform.events();
  PipelineRun run;
  run.shards = shard_count;
  run.t0 = queue.now();
  // One NDP command covers the whole operation, so the firmware command
  // cost amortizes away (unlike GET). Its NVMe submission still owes any
  // injected timeout/backoff latency (0 on a fault-free link).
  platform.arm().ndp_command();
  if (const platform::SimTime penalty = platform.nvme().retry_penalty();
      penalty > 0) {
    queue.run_until(queue.now() + penalty);
  }
  run.cmd_done = queue.now();

  // 1. Schedule every data-block page read on the DES (this models the
  //    ~200 MB/s aggregate limit, LUN parallelism and controller-bus
  //    serialization, shared by all shards — adding PEs never makes flash
  //    faster), then drain it, unrelated traffic included.
  const BlockReads reads = read_blocks(blocks);
  queue.run();
  run.bytes_from_flash = reads.bytes;
  for (const platform::SimTime t : reads.ready) {
    run.flash_done = std::max(run.flash_done, t);
  }
  if (run.flash_done > run.t0) run.flash_done -= run.t0;

  // 2. Channel-affine shard assignment: each shard owns a contiguous rank
  //    range of the buses (or LUNs) the block list actually occupies, so
  //    each PE streams from its own slice of the flash fabric.
  std::vector<std::uint64_t> first_pages(blocks.size(), 0);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const auto& handle = blocks[b].table->blocks[blocks[b].block_index];
    if (!handle.flash_pages.empty()) {
      first_pages[b] = handle.flash_pages.front();
    }
  }
  const std::vector<std::vector<std::size_t>> shard_lists =
      kv::PlacementPolicy::shard_blocks(platform.flash().topology(),
                                        first_pages, shard_count);
  std::vector<std::uint32_t> shard_of(blocks.size(), 0);
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    for (const std::size_t b : shard_lists[k]) shard_of[b] = k;
  }

  // 3. Assembly + routing, serially in global block order. Everything
  //    that mutates shared state — the flash content path (checksums
  //    consume pending silent-corruption marks), recovery, and the
  //    injector's per-shard hang ordinals — happens here, so execution is
  //    pure compute over owned buffers and its outcome is independent of
  //    thread interleaving.
  const auto route = [&](std::size_t b) {
    Routed item = assemble_and_route(blocks[b], reads.media[b], shard_of[b],
                                     run.reliability);
    if (item.via_software) ++run.via_software;
    return item;
  };
  // 4. Execution: each shard pipelines its blocks against their flash
  //    completion times, touching only its own slots.
  const bool on_pe = config_.mode == ExecMode::kHardware;
  if (on_pe) {
    begin_shards(shard_count, plan.fold.op(), plan.field_select);
  }
  std::vector<platform::SimTime> shard_free(shard_count, run.t0);
  std::vector<std::uint64_t> shard_cycles(shard_count, 0);
  const auto execute = [&](std::uint32_t k, std::size_t b, Routed& item,
                           Outcome& out) {
    if (item.hang) shards_[k]->invalidate_config();
    out = run_block(item, plan, on_pe ? shards_[k].get() : nullptr);
    out.cost += item.penalty;
    out.start = std::max(shard_free[k], reads.ready[b]);
    shard_free[k] = out.start + out.cost;
    shard_cycles[k] += out.pe_cycles;
    item.block = {};  // Release the payload copy as soon as possible.
  };
  // 5. The per-operation fold, in global block order, after the block's
  //    span: it starts when both its flash pages and its shard are
  //    available; the width is its processing time.
  obs::Observability& obs = platform.observability();
  const auto complete = [&](std::size_t b, Outcome& out) {
    if (obs.tracing()) {
      obs.trace->complete(
          obs.trace->track("ndp.shard" + std::to_string(shard_of[b])),
          "block", "ndp", out.start, out.cost,
          "{\"block\":" + std::to_string(b) +
              ",\"matched\":" + std::to_string(out.matched) + ctx_arg(obs) +
              "}");
    }
    fold(b, shard_of[b], out);
  };
  if (shard_count == 1) {
    // One shard streams on the calling thread: only one block buffer and
    // one block's survivors are live at a time.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      Routed item = route(b);
      Outcome out;
      execute(0, b, item, out);
      complete(b, out);
    }
  } else {
    std::vector<Routed> work;
    work.reserve(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) work.push_back(route(b));
    std::vector<Outcome> outcomes(blocks.size());
    support::ThreadPool pool(
        support::ThreadPool::capped_threads(config_.pe_threads, shard_count));
    support::parallel_for(pool, shard_count, [&](std::size_t k) {
      for (const std::size_t b : shard_lists[k]) {
        execute(static_cast<std::uint32_t>(k), b, work[b], outcomes[b]);
      }
    });
    for (std::size_t b = 0; b < blocks.size(); ++b) complete(b, outcomes[b]);
  }
  // The PE phase ends when the SLOWEST shard drains: replicated PEs divide
  // the cycle work, but the critical path is the worst shard.
  run.pipe_end = run.t0;
  for (std::uint32_t k = 0; k < shard_count; ++k) {
    run.pipe_end = std::max(run.pipe_end, shard_free[k]);
    run.pe_phase_cycles = std::max(run.pe_phase_cycles, shard_cycles[k]);
  }
  return run;
}

platform::SimTime HybridExecutor::finish(const PipelineRun& run,
                                         std::uint64_t results,
                                         std::uint64_t result_bytes,
                                         bool transfer) {
  auto& platform = db_.platform();
  auto& queue = platform.events();
  // Finalization and the NVMe result transfer stay serial behind the PE
  // phase. The result transfer reserves the shared host link: uncontended
  // it costs exactly nvme_transfer_time plus the injected timeout/backoff
  // share; under concurrent host-service traffic it additionally waits
  // for earlier grants to drain.
  const platform::SimTime finalize_end =
      run.pipe_end + results * kFinalizePerResult;
  const platform::SimTime end =
      transfer ? platform.nvme().reserve(finalize_end, result_bytes).done
               : finalize_end;
  if (end > queue.now()) queue.advance_to(end);

  if (config_.mode == ExecMode::kHardware) merge_shard_obs(run.shards);
  obs::Observability& obs = platform.observability();
  if (obs.tracing()) {
    obs.trace->complete(obs.trace->track("ndp"), "merge", "ndp",
                        run.pipe_end, end - run.pipe_end,
                        "{\"shards\":" + std::to_string(run.shards) +
                            ",\"results\":" + std::to_string(results) +
                            ctx_arg(obs) + "}");
  }
  return end;
}

ScanStats HybridExecutor::scan_blocks(
    const std::vector<BlockRef>& blocks,
    const std::vector<FilterPredicate>& predicates, const RecordSink& sink,
    const std::vector<KeyRange>& key_ranges) {
  const bool hw_mode = config_.mode == ExecMode::kHardware;
  const std::uint32_t sw_stages =
      std::max<std::uint32_t>(1, static_cast<std::uint32_t>(predicates.size()));
  const std::uint32_t stages =
      hw_mode ? shards_.front()->design().filter_stage_count() : sw_stages;

  // Predicates beyond the PE's chain length are evaluated in software on
  // the survivors — the only option on [1]'s non-chainable architecture,
  // and only possible when the transform keeps the input layout intact.
  Plan plan;
  std::vector<FilterPredicate> chained = predicates;
  if (hw_mode && predicates.size() > stages) {
    NDPGEN_CHECK_ARG(
        parser_.mapping.identity,
        "conjunction exceeds the PE's filter stages and the transform is "
        "not identity: software post-filtering is impossible");
    for (std::size_t i = stages; i < predicates.size(); ++i) {
      plan.post_filter.push_back(
          bind_predicate(parser_.input, operators_, predicates[i]));
    }
    chained.resize(stages);
  }
  plan.bound = bind_conjunction(parser_.input, operators_, chained, stages);

  // Software finalization in GLOBAL block order, so the result set is
  // byte-identical for every shard count: recency dedup + tombstone
  // suppression on the result keys (blocks arrive in recency order, so the
  // first version seen per key is the authoritative one). Only tables
  // whose key range overlaps another's can repeat a key, so only their
  // results enter `seen`.
  ScanStats stats;
  const auto tables = db_.version().recency_ordered();
  const std::unordered_set<const kv::SSTable*> overlapping =
      overlapping_tables(tables);
  TombstoneFilter tombstones(tables);
  std::unordered_set<kv::Key, kv::KeyHash> seen;
  const auto collect = [&](std::size_t b, std::uint32_t, Outcome& out) {
    stats.tuples_scanned += out.tuples_in;
    stats.tuples_matched += out.matched;
    tombstones.enter(blocks[b].table);
    const bool dedup = overlapping.contains(blocks[b].table);
    for (std::size_t at = 0; at < out.survivors.size(); at += out.stride) {
      const auto record =
          std::span<const std::uint8_t>(out.survivors).subspan(at, out.stride);
      if (config_.result_key_extractor) {
        const kv::Key key = config_.result_key_extractor(record);
        if (!key_ranges.empty() && !key_in_ranges(key, key_ranges)) {
          continue;  // Boundary-block record outside every span.
        }
        if (tombstones.hides(key)) continue;
        if (dedup && !seen.insert(key).second) continue;
      }
      ++stats.results;
      stats.result_bytes += record.size();
      if (sink) sink(record);
    }
    out.survivors = {};
  };
  const PipelineRun run =
      run_pipeline(blocks, plan, effective_shards(), collect);
  static_cast<ReliabilityStats&>(stats) = run.reliability;
  stats.shards = run.shards;
  stats.blocks = blocks.size();
  stats.bytes_from_flash = run.bytes_from_flash;
  stats.flash_done = run.flash_done;
  stats.blocks_via_software = run.via_software;
  stats.pe_phase_cycles = run.pe_phase_cycles;

  // The classic path already paid the link per block; its results are
  // host-resident.
  const platform::SimTime end =
      finish(run, stats.results, stats.result_bytes,
             /*transfer=*/config_.mode != ExecMode::kHostClassic);
  stats.elapsed = end - run.t0;
  stats.phases = attribute_scan_phases(
      run.t0, run.cmd_done, run.t0 + stats.flash_done, run.pipe_end,
      run.pipe_end + stats.results * kFinalizePerResult, end);

  obs::Observability& obs = db_.platform().observability();
  obs::MetricsRegistry& m = obs.metrics;
  m.add(m.counter("ndp.scan.commands"), 1);
  m.add(m.counter("ndp.scan.blocks"), stats.blocks);
  m.add(m.counter("ndp.scan.blocks_via_software"),
        stats.blocks_via_software);
  m.add(m.counter("ndp.scan.tuples_scanned"), stats.tuples_scanned);
  m.add(m.counter("ndp.scan.tuples_matched"), stats.tuples_matched);
  m.add(m.counter("ndp.scan.results"), stats.results);
  m.add(m.counter("ndp.scan.bytes_from_flash"), stats.bytes_from_flash);
  m.add(m.counter("ndp.scan.result_bytes"), stats.result_bytes);
  m.observe(m.histogram("ndp.scan.elapsed_ns"), stats.elapsed);
  publish_scan_phases(m, stats.phases);
  m.raise(m.gauge("ndp.scan.shards"), stats.shards);
  m.raise(m.gauge("ndp.scan.pe_phase_cycles"), stats.pe_phase_cycles);
  if (faults_enabled()) publish_reliability(m, "ndp.scan", stats);
  if (obs.tracing()) {
    const obs::TrackId ndp_track = obs.trace->track("ndp");
    obs.trace->complete(
        ndp_track, "scan", "ndp", run.t0, stats.elapsed,
        std::string("{\"mode\":\"") + std::string(to_string(config_.mode)) +
            "\",\"shards\":" + std::to_string(stats.shards) +
            ",\"blocks\":" + std::to_string(stats.blocks) +
            ",\"tuples_scanned\":" + std::to_string(stats.tuples_scanned) +
            ",\"tuples_matched\":" + std::to_string(stats.tuples_matched) +
            ",\"results\":" + std::to_string(stats.results) +
            ",\"phases\":" + stats.phases.json() + ctx_arg(obs) + "}");
    if (obs.request_ctx.active()) {
      // The flow arrow threads the request through the device: it binds
      // to the scan slice just emitted on the "ndp" track.
      obs.trace->flow_step(ndp_track, "request", "request", run.t0,
                           obs.request_ctx.trace_id);
    }
  }
  return stats;
}

AggregateStats HybridExecutor::aggregate(
    const std::vector<FilterPredicate>& predicates, hwgen::AggOp op,
    std::string_view field_path) {
  check_store_ready();
  NDPGEN_CHECK_ARG(op != hwgen::AggOp::kNone,
                   "aggregate requires a real operation");
  const auto field_index = parser_.input.find_field(field_path);
  NDPGEN_CHECK_ARG(field_index.has_value() &&
                       parser_.input.fields[*field_index].relevant,
                   "aggregate field must be a filterable input field");
  const bool hw_mode = config_.mode == ExecMode::kHardware;
  if (hw_mode) {
    NDPGEN_CHECK_ARG(shards_.front()->supports_aggregation(),
                     "executor PE lacks an aggregation unit (generate "
                     "with enable_aggregation)");
  }
  Plan plan;
  plan.aggregate = true;
  // Field selector = position among the relevant fields.
  for (const std::size_t index : parser_.input.relevant_indices()) {
    if (index == *field_index) break;
    ++plan.field_select;
  }
  plan.fold =
      hwgen::AggregateFold(op, parser_.plan.fields()[plan.field_select]);
  const std::uint32_t stages =
      hw_mode ? shards_.front()->design().filter_stage_count()
              : std::max<std::uint32_t>(
                    1, static_cast<std::uint32_t>(predicates.size()));
  plan.bound = bind_conjunction(parser_.input, operators_, predicates, stages);

  // Software folds tuple by tuple in global block order on one
  // pipeline (float sums are order-sensitive); PE blocks fold per block,
  // then per shard, then across shards in shard order.
  const std::uint32_t shard_count = hw_mode ? effective_shards() : 1;
  const std::vector<BlockRef> blocks = collect_blocks();
  AggregateStats stats;
  const hwgen::AggregateFold& fold = plan.fold;
  std::uint64_t acc = fold.seed();
  std::vector<std::uint64_t> shard_acc(shard_count, fold.seed());
  const auto accumulate = [&](std::size_t, std::uint32_t k, Outcome& out) {
    stats.tuples_scanned += out.tuples_in;
    stats.folded += out.matched;
    if (!hw_mode) {
      for (const std::uint64_t value : out.values) {
        acc = fold.combine(acc, value);
      }
      return;
    }
    // A degraded block folds in software into a block result like the
    // PE's before joining its shard.
    std::uint64_t block_acc = out.block_result;
    for (const std::uint64_t value : out.values) {
      block_acc = fold.combine(block_acc, value);
    }
    shard_acc[k] = fold.combine(shard_acc[k], block_acc);
  };
  const PipelineRun run =
      run_pipeline(blocks, plan, shard_count, accumulate);
  for (const std::uint64_t shard : shard_acc) acc = fold.combine(acc, shard);
  static_cast<ReliabilityStats&>(stats) = run.reliability;
  stats.op = op;
  stats.shards = shard_count;
  stats.blocks = blocks.size();
  stats.raw_result = acc;
  // Only the result registers cross the NVMe link.
  stats.result_bytes = 16;
  stats.elapsed = finish(run, /*results=*/0, stats.result_bytes,
                         /*transfer=*/true) -
                  run.t0;

  obs::Observability& obs = db_.platform().observability();
  obs::MetricsRegistry& m = obs.metrics;
  m.add(m.counter("ndp.aggregate.commands"), 1);
  m.add(m.counter("ndp.aggregate.blocks"), stats.blocks);
  m.add(m.counter("ndp.aggregate.tuples_scanned"), stats.tuples_scanned);
  m.add(m.counter("ndp.aggregate.folded"), stats.folded);
  m.observe(m.histogram("ndp.aggregate.elapsed_ns"), stats.elapsed);
  m.raise(m.gauge("ndp.aggregate.shards"), shard_count);
  if (faults_enabled()) publish_reliability(m, "ndp.aggregate", stats);
  if (obs.tracing()) {
    obs.trace->complete(
        obs.trace->track("ndp"), "aggregate", "ndp", run.t0, stats.elapsed,
        std::string("{\"mode\":\"") + std::string(to_string(config_.mode)) +
            "\",\"shards\":" + std::to_string(shard_count) +
            ",\"blocks\":" + std::to_string(stats.blocks) +
            ",\"folded\":" + std::to_string(stats.folded) + ctx_arg(obs) +
            "}");
  }
  return stats;
}

GetStats HybridExecutor::get(const kv::Key& key) {
  check_store_ready();
  auto& platform = db_.platform();
  auto& queue = platform.events();
  auto& arm = platform.arm();
  const auto& timing = platform.timing();
  const platform::SimTime t0 = queue.now();

  obs::Observability& obs = platform.observability();
  // Publish + trace on every exit path (GET returns early on a MemTable
  // hit or tombstone).
  struct Publish {
    obs::Observability& obs;
    const GetStats& stats;
    ExecMode mode;
    platform::SimTime t0;
    bool faults;
    ~Publish() {
      obs::MetricsRegistry& m = obs.metrics;
      m.add(m.counter("ndp.get.commands"), 1);
      if (stats.found) m.add(m.counter("ndp.get.hits"), 1);
      m.add(m.counter("ndp.get.tables_probed"), stats.tables_probed);
      m.add(m.counter("ndp.get.blocks_fetched"), stats.blocks_fetched);
      m.observe(m.histogram("ndp.get.elapsed_ns"), stats.elapsed);
      if (faults) publish_reliability(m, "ndp.get", stats);
      if (obs.tracing()) {
        obs.trace->complete(
            obs.trace->track("ndp"), "get", "ndp", t0, stats.elapsed,
            std::string("{\"mode\":\"") + std::string(to_string(mode)) +
                "\",\"found\":" + (stats.found ? "true" : "false") +
                ",\"blocks_fetched\":" +
                std::to_string(stats.blocks_fetched) + "}");
      }
    }
  };

  GetStats stats;
  const Publish publish{obs, stats, config_.mode, t0, faults_enabled()};
  // Device firmware handles one NDP command per GET. The submission
  // crosses the NVMe link: a timed-out command retries with exponential
  // backoff before the device sees it (0-cost on a fault-free link).
  arm.ndp_command();
  if (const platform::SimTime penalty = platform.nvme().retry_penalty();
      penalty > 0) {
    queue.run_until(queue.now() + penalty);
  }
  // C0: MemTable probe.
  arm.index_probe(std::max<std::uint64_t>(1, db_.memtable().entry_count()));
  if (const kv::MemEntry* entry = db_.memtable().get(key)) {
    stats.elapsed = queue.now() - t0;
    if (entry->type == kv::EntryType::kValue) {
      stats.found = true;
      stats.record = parser_.plan.project(entry->record);
    }
    return stats;
  }

  // GET uses an equality predicate on the key's leading field; survivors
  // are verified against the full key in software (the "general
  // algorithm" part of the hybrid execution).
  std::vector<FilterPredicate> key_predicate;
  const auto relevant = parser_.input.relevant_indices();
  NDPGEN_CHECK(!relevant.empty(), "layout without filterable fields");
  key_predicate.push_back(FilterPredicate{
      parser_.input.fields[relevant.front()].path, "eq", key.hi});
  const std::uint32_t stages =
      config_.mode == ExecMode::kHardware
          ? shards_.front()->design().filter_stage_count()
          : 1;
  const auto bound =
      bind_conjunction(parser_.input, operators_, key_predicate, stages);

  bool pe_used = false;
  for (const auto& table : db_.version().recency_ordered()) {
    if (key < table->min_key || table->max_key < key) continue;
    // Bloom probe (a handful of DRAM bit tests) skips tables that
    // definitely lack the key — crucial for the uncompacted C1, whose
    // tables ALL overlap popular key ranges.
    arm.bloom_probe();
    if (!table->bloom.may_contain(key)) continue;
    ++stats.tables_probed;
    // Index-block traversal + tombstone metadata probe (device DRAM).
    arm.index_probe(std::max<std::size_t>(std::size_t{1},
                                          table->blocks.size()));
    if (!table->tombstones.empty()) {
      arm.index_probe(table->tombstones.size());
      if (table->find_tombstone(key) != nullptr) break;  // Deleted.
    }
    const int block_index = table->find_block(key);
    if (block_index < 0) continue;

    // The shared pipeline steps, one block at a time on the DES clock
    // (GET is sequential: the ARM waits for each step).
    const BlockRef ref{table.get(), static_cast<std::uint32_t>(block_index)};
    const BlockReads reads = read_blocks({ref});
    ++stats.blocks_fetched;
    const Routed item =
        assemble_and_route(ref, reads.media.front(), /*shard=*/0, stats);
    if (item.penalty > 0) queue.run_until(queue.now() + item.penalty);

    // The block's survivors back to back, `stride` bytes each.
    std::vector<std::uint8_t> survivors;
    std::uint32_t stride = parser_.plan.output_bytes();
    if (item.route == Route::kPe) {
      if (!pe_used) {
        begin_shards(1, hwgen::AggOp::kNone, 0);
        pe_used = true;
      }
      auto result = shards_.front()->process_block(
          std::span<const std::uint8_t>(item.block).first(item.payload),
          bound, /*collect=*/true, /*reconfigure=*/true);
      queue.run_until(queue.now() + result.overhead + result.pe_time);
      survivors = std::move(result.records);
      stride = shards_.front()->design().parser.output.storage_bytes();
    } else {
      if (item.route == Route::kHost) {
        // Classical path: the block crosses the I/O stack and NVMe before
        // the host can binary-search it.
        queue.run_until(queue.now() + timing.host_io_stack_per_block +
                        timing.nvme_transfer_time(kv::kDataBlockBytes) +
                        2 * platform::kNsPerUs);
      } else {
        // The software path binary-searches the key-sorted block directly
        // (the "very general algorithm" of a KV store) — no full parse.
        arm.block_binary_search(kv::read_trailer(item.block).record_count,
                                db_.config().record_bytes);
      }
      if (const auto record = kv::SSTReader::find_in_block(
              item.block, key, db_.config().extractor)) {
        survivors = parser_.plan.project(*record);
      }
    }

    // Software verification of the full 128-bit key on the survivors; only
    // the record found is copied out.
    for (std::size_t at = 0; at < survivors.size(); at += stride) {
      const auto record =
          std::span<const std::uint8_t>(survivors).subspan(at, stride);
      // Verify against the ORIGINAL input record when the transform keeps
      // the key; otherwise trust the filter.
      if (record.size() != db_.config().record_bytes ||
          db_.config().extractor(record) == key) {
        stats.found = true;
        stats.record.assign(record.begin(), record.end());
        break;
      }
    }
    if (stats.found) break;
  }
  if (pe_used) merge_shard_obs(1);
  stats.elapsed = queue.now() - t0;
  return stats;
}

}  // namespace ndpgen::ndp
