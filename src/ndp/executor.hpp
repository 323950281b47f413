// Hybrid NDP executors for GET and SCAN (the operations of Fig. 7).
//
// "For both operations the execution is implemented in a hybrid way, where
// the software executes a very general algorithm and exploits the hardware
// whenever datablocks have to be filtered or transformed" (§V).
//
// The software part (index traversal, recency/tombstone reconciliation,
// result assembly) always runs on the ARM model; the block-level
// filter+transform step runs either in software (SoftwareNdp) or on one or
// more simulated PEs (PeShard), selected by ExecMode.
//
// Every operation runs its blocks through ONE pipeline: checked page reads
// scheduled on the DES, checked block assembly with a firmware recovery
// pass on failure, routing to PE / ARM / host (or degraded to the ARM on
// recovery or a hung PE), execution on N >= 1 shards, and a per-operation
// fold — collect for scans, accumulate for aggregate, PE filter or binary
// search for GET. So every offload shares one fault contract. A block's
// survivors stay one flat buffer (records back to back, as the PE's store
// unit writes them) from the PE or ARM to the scan merge, which hands each
// result record to one RecordSink; no result record is a heap object of
// its own.
//
// Timing composition for SCAN/AGGREGATE: all data-block flash reads are
// scheduled on the DES (which models LUN parallelism and controller-bus
// serialization); block processing is pipelined against the per-block
// flash completion times, one pipeline per shard. The reported elapsed
// time is the makespan of that pipeline plus result finalization and the
// NVMe transfer of the (much smaller) result set to the host. GET steps
// the DES table by table, charging each block's costs sequentially.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hwsim/kernel.hpp"
#include "kv/db.hpp"
#include "ndp/pe_shard.hpp"
#include "ndp/software_ndp.hpp"
#include "ndp/predicate.hpp"
#include "obs/request_trace.hpp"

namespace ndpgen::ndp {

/// Inclusive key range [first, second] for range-scan style offloads.
using KeyRange = std::pair<kv::Key, kv::Key>;

enum class ExecMode : std::uint8_t {
  kSoftware,    ///< NDP in software on the device ARM cores.
  kHardware,    ///< NDP on generated/hand-crafted PEs.
  kHostClassic, ///< No NDP: ship every block to the host through the
                ///< classical I/O stack and filter there (Fig. 1, left).
};

[[nodiscard]] constexpr std::string_view to_string(ExecMode mode) noexcept {
  switch (mode) {
    case ExecMode::kSoftware: return "SW";
    case ExecMode::kHardware: return "HW";
    case ExecMode::kHostClassic: return "HOST";
  }
  return "?";
}

/// Parses the CLI spelling ("sw", "hw", "host"); nullopt for anything else.
[[nodiscard]] constexpr std::optional<ExecMode> parse_exec_mode(
    std::string_view name) noexcept {
  if (name == "sw") return ExecMode::kSoftware;
  if (name == "hw") return ExecMode::kHardware;
  if (name == "host") return ExecMode::kHostClassic;
  return std::nullopt;
}

/// Per-block fault accounting shared by every operation (all zero on
/// fault-free media).
struct ReliabilityStats {
  /// Blocks that needed at least one ECC read-retry step on some page.
  std::uint64_t blocks_retried = 0;
  /// Blocks rerouted from the HW path to SoftwareNdp (uncorrectable
  /// media, checksum mismatch, or a hung PE caught by the watchdog).
  std::uint64_t blocks_degraded_to_software = 0;
  /// Blocks whose read was uncorrectable or failed checksum verification
  /// and went through the firmware recovery pass.
  std::uint64_t uncorrectable_blocks = 0;
  /// Blocks that STILL fail their index CRC after the recovery re-read:
  /// the stored flash content itself is corrupt (latent bit-rot), so
  /// whatever the operation produced from them is untrustworthy. The
  /// cluster coordinator uses this to discard the sub-scan and re-fetch
  /// its partitions from a healthy replica (read-repair).
  std::uint64_t integrity_blocks = 0;
};

struct ScanStats : ReliabilityStats {
  std::uint64_t blocks = 0;
  std::uint64_t tuples_scanned = 0;
  std::uint64_t tuples_matched = 0;   ///< Survivors before dedup.
  std::uint64_t results = 0;          ///< After recency/tombstone dedup.
  std::uint64_t bytes_from_flash = 0;
  std::uint64_t result_bytes = 0;
  platform::SimTime elapsed = 0;      ///< End-to-end virtual time.
  platform::SimTime flash_done = 0;   ///< When the last block left flash.
  /// Device-side phase attribution of `elapsed`: doorbell (NDP command +
  /// retry penalty), flash (waiting on the last page read), pe (pipeline
  /// makespan beyond flash), merge (cross-shard merge + per-result
  /// finalization), transfer (result DMA to the host). queueing stays 0
  /// here — it belongs to the host service. Invariant (test-enforced):
  /// phases.total() == elapsed.
  obs::PhaseBreakdown phases;
  std::uint64_t blocks_via_software = 0;  ///< Partial blocks on HW path.

  // --- Multi-PE scaling (paper Fig. 10) ---------------------------------
  /// PE shards (pipelines) the scan ran on.
  std::uint32_t shards = 1;
  /// Simulated PE-phase critical path: the largest per-shard sum of PE
  /// cycles (HW mode; 0 when no block ran on a PE). Sharding divides this
  /// while the shared flash/bus serialization in `flash_done` does not —
  /// which is exactly the paper-shaped speedup story.
  std::uint64_t pe_phase_cycles = 0;
};

/// Result of an aggregate scan (extension; paper §VII outlook).
struct AggregateStats : ReliabilityStats {
  hwgen::AggOp op = hwgen::AggOp::kNone;
  std::uint64_t raw_result = 0;  ///< Field-encoded result bits.
  std::uint64_t folded = 0;      ///< Tuples folded (post-filter matches).
  std::uint64_t blocks = 0;
  std::uint64_t tuples_scanned = 0;
  platform::SimTime elapsed = 0;
  std::uint64_t result_bytes = 0;  ///< What crossed NVMe (registers only!).
  std::uint32_t shards = 1;        ///< PE shards the aggregate ran on.

  /// Interprets raw_result for an unsigned integer field.
  [[nodiscard]] std::uint64_t as_u64() const noexcept { return raw_result; }
};

struct GetStats : ReliabilityStats {
  bool found = false;
  std::vector<std::uint8_t> record;  ///< Output-layout record if found.
  platform::SimTime elapsed = 0;
  std::uint32_t tables_probed = 0;
  std::uint32_t blocks_fetched = 0;
};

struct ExecutorConfig {
  ExecMode mode = ExecMode::kSoftware;
  /// kHardware only: the index of the attached PE (CosmosPlatform::
  /// attach_pe) whose design every shard instantiates. Exactly one index;
  /// the shard count comes from num_pes alone.
  std::vector<std::size_t> pe_indices;
  /// Number of parallel PE shards for SCAN/AGGREGATE (multi-PE scaling,
  /// paper Fig. 10). Blocks are sharded by flash channel affinity; each
  /// shard runs its own thread-confined PE instance and the results merge
  /// deterministically, byte-identical for every shard count. 1 (the
  /// default) runs the single shard on the calling thread. kHostClassic
  /// ignores this (the classical path has no device-side parallelism to
  /// replicate), and so does a software aggregate (its tuple-order fold
  /// runs on one ARM pipeline).
  std::uint32_t num_pes = 1;
  /// Host worker threads driving the shard benches, capped at the shard
  /// count; 0 = one per shard, capped at the hardware concurrency. The
  /// thread count NEVER affects results, stats, traces or fault outcomes
  /// — only wall-clock time.
  std::uint32_t pe_threads = 0;
  /// PE-kernel fidelity for shard benches (exact ticking vs fused chunk
  /// replay). Results are byte-identical either way; see SimMode.
  hwsim::SimMode sim_mode = hwsim::sim_mode_from_env();
  /// Extracts the key from an OUTPUT-layout record, enabling recency
  /// dedup and tombstone suppression on scan results. When the transform
  /// drops the key fields, leave unset: the scan then reports raw
  /// survivors (valid for single-version datasets such as bulk loads).
  kv::KeyExtractor result_key_extractor = nullptr;
};

class HybridExecutor {
 public:
  HybridExecutor(kv::NKV& db, const analysis::AnalyzedParser& parser,
                 const hwgen::OperatorSet& operators, ExecutorConfig config);

  /// Receives each surviving output-layout record of a scan, in result
  /// order. The span is valid only during the call.
  using RecordSink = std::function<void(std::span<const std::uint8_t>)>;

  /// Full-dataset SCAN with a predicate conjunction. Every result record
  /// goes to `sink` (empty = count only).
  ScanStats scan(const std::vector<FilterPredicate>& predicates,
                 const RecordSink& sink);

  /// Key-range SCAN over [lo, hi]: prunes SSTs and data blocks whose key
  /// range cannot intersect using the index metadata (this is what makes
  /// RANGE_SCANs cheaper than full scans on an LSM tree), then processes
  /// the surviving blocks like scan(). Key bounds are enforced in the
  /// software part on the survivors, so ExecutorConfig::
  /// result_key_extractor is required.
  ScanStats range_scan(const kv::Key& lo, const kv::Key& hi,
                       const std::vector<FilterPredicate>& predicates,
                       const RecordSink& sink);

  /// Batched offload entry point (host-service coalescing): scans several
  /// key ranges under ONE NDP command. Ranges are normalized (sorted,
  /// overlapping/adjacent ones merged), SSTs and data blocks that cannot
  /// intersect any span are pruned via the index, and the software
  /// finalization drops survivors outside every span — so the result set
  /// equals the union of the per-range range_scan results, at the cost of
  /// a single command/flash/PE/NVMe round-trip. Requires
  /// result_key_extractor, like range_scan.
  ScanStats multi_range_scan(const std::vector<KeyRange>& ranges,
                             const std::vector<FilterPredicate>& predicates,
                             const RecordSink& sink);

  // One heap vector per result record: these adapters append each sink
  // record to `results` (nullptr = count only). They remain only because
  // ndpbench, host::OffloadTarget, the cluster and the examples name this
  // type; the benchmark change that moves ndpbench onto the sink deletes
  // them.
  ScanStats scan(const std::vector<FilterPredicate>& predicates,
                 std::vector<std::vector<std::uint8_t>>* results = nullptr);
  ScanStats range_scan(const kv::Key& lo, const kv::Key& hi,
                       const std::vector<FilterPredicate>& predicates,
                       std::vector<std::vector<std::uint8_t>>* results =
                           nullptr);
  ScanStats multi_range_scan(const std::vector<KeyRange>& ranges,
                             const std::vector<FilterPredicate>& predicates,
                             std::vector<std::vector<std::uint8_t>>* results =
                                 nullptr);

  /// Recency-correct point lookup with block-level HW/SW filtering.
  GetStats get(const kv::Key& key);

  /// Aggregate scan: folds `field_path` of every record matching the
  /// predicate conjunction into count/sum/min/max, entirely on-device in
  /// hardware mode (only two result registers cross the NVMe link).
  /// Aggregates fold every stored version (no recency dedup); use on
  /// single-version datasets (bulk loads) or treat as approximate.
  AggregateStats aggregate(const std::vector<FilterPredicate>& predicates,
                           hwgen::AggOp op, std::string_view field_path);

 private:
  struct BlockRef {
    const kv::SSTable* table;
    std::uint32_t block_index;
  };
  struct BlockReads;
  struct Routed;
  struct Plan;
  struct Outcome;
  struct PipelineRun;
  /// The per-operation fold of one block's outcome (block index, shard).
  using BlockFold = std::function<void(std::size_t, std::uint32_t, Outcome&)>;

  /// NDP offload must not observe a half-recovered store: every public
  /// operation raises Error{kStorage} while db_.recovering().
  void check_store_ready() const;

  [[nodiscard]] std::vector<BlockRef> collect_blocks() const;

  /// Pipeline step 1: schedules every page of `blocks` as a checked flash
  /// read on the DES and steps it until the last page has landed.
  [[nodiscard]] BlockReads read_blocks(const std::vector<BlockRef>& blocks);

  /// Pipeline steps 2-3: checked assembly (recovery pass on failure) and
  /// routing to PE / ARM / host, counting faults into `reliability`. Must
  /// run serially in block order: it consumes corruption marks and draws
  /// `shard`'s hang decisions.
  [[nodiscard]] Routed assemble_and_route(const BlockRef& ref,
                                          std::uint8_t media,
                                          std::uint32_t shard,
                                          ReliabilityStats& reliability);

  /// Runs one routed block on its route (`shard` for kPe): PE dispatch,
  /// ARM filter or host filter, plus the plan's per-block fold input.
  /// Touches only `shard` and the outcome, so shards run it in parallel.
  [[nodiscard]] Outcome run_block(const Routed& item, const Plan& plan,
                                  PeShard* shard) const;

  /// The SCAN/AGGREGATE pipeline: command, reads, routing and per-block
  /// execution on `shard_count` shards, then `fold` of every block's
  /// outcome in global block order. The caller then calls finish().
  [[nodiscard]] PipelineRun run_pipeline(const std::vector<BlockRef>& blocks,
                                         const Plan& plan,
                                         std::uint32_t shard_count,
                                         const BlockFold& fold);

  /// Composes the end of a pipeline run (finalization of `results`
  /// records, the NVMe transfer of `result_bytes` unless the results are
  /// already host-resident) and merges the shards' observability.
  /// Returns the completion time.
  platform::SimTime finish(const PipelineRun& run, std::uint64_t results,
                           std::uint64_t result_bytes, bool transfer);

  /// SCAN/RANGE/MULTI-RANGE on the pipeline, folding survivors through
  /// recency dedup, tombstone suppression and `key_ranges` bounds (sorted,
  /// disjoint; empty = unfiltered), then handing each result to `sink`.
  ScanStats scan_blocks(const std::vector<BlockRef>& blocks,
                        const std::vector<FilterPredicate>& predicates,
                        const RecordSink& sink,
                        const std::vector<KeyRange>& key_ranges);

  /// Starts a call on the first `count` PE shards and arms their
  /// aggregation units with `op` (kNone = pass-through).
  void begin_shards(std::uint32_t count, hwgen::AggOp op,
                    std::uint32_t field_select);

  /// Folds the first `count` shards' metrics and trace events into the
  /// platform, in shard order (trace lanes under a "shardN." prefix).
  void merge_shard_obs(std::uint32_t count);

  /// True when the platform injects faults (gates the fault metrics).
  [[nodiscard]] bool faults_enabled() const;

  /// Effective shard count for SCAN/AGGREGATE under the current config.
  [[nodiscard]] std::uint32_t effective_shards() const noexcept;

  kv::NKV& db_;
  const analysis::AnalyzedParser& parser_;
  const hwgen::OperatorSet& operators_;
  ExecutorConfig config_;
  SoftwareNdp software_;
  /// The PE drivers (kHardware only): one per effective shard, built once
  /// and reused by every call.
  std::vector<std::unique_ptr<PeShard>> shards_;
};

}  // namespace ndpgen::ndp
