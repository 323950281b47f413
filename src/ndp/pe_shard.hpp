// PeShard: the executor's PE driver — one thread-confined PE instance.
//
// Every PE cycle of the device model runs here. The platform only records
// the attached PE designs; each shard owns a self-contained PETestBench
// built from one of them — its own SimMemory (the PS-DRAM staging area),
// the PE's AXI read/write channel pair, SimKernel and SimulatedPE, with
// no other PE or DMA engine on that memory — plus a private
// Observability context and TraceSink, so shards tick on separate host
// threads. What shards share on the device is the flash bus, which the
// executor models on the DES. A shard never touches the DES, the flash
// model or the platform registry; the executor merges its metrics, trace
// events and timing into the platform deterministically (in shard order)
// after all shard threads have joined.
//
// Content-exact: the block payload is staged in the bench memory, the PE
// is configured through its MMIO registers (the generated register map),
// executed cycle-by-cycle, and the transformed survivors are read back
// from the result staging area. The HW/SW-interface cost (dispatch,
// register writes, polling) is computed against the platform timing model
// and returned alongside the PE's cycle time, so the executor composes
// pipelines without double-charging the DES clock.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hwsim/pe_sim.hpp"
#include "ndp/predicate.hpp"
#include "obs/trace.hpp"
#include "platform/timing.hpp"

namespace ndpgen::ndp {

/// HW/SW-interface overhead of dispatching one block to a PE of `design`
/// (excl. PE runtime): address/size register writes + doorbell +
/// completion poll/readback, plus the filter-stage writes when
/// reconfiguring. Pure function of the timing model and the design.
[[nodiscard]] platform::SimTime hw_dispatch_overhead(
    const platform::TimingConfig& timing, const hwgen::PEDesign& design,
    bool reconfigure);

/// Outcome of hardware-processing one data block.
struct HwBlockResult {
  hwsim::ChunkStats stats;
  platform::SimTime pe_time = 0;      ///< Pure PE execution (cycles @ clk).
  platform::SimTime overhead = 0;     ///< Dispatch + registers + polling.
  /// If collected: the `stats.tuples_out` output-layout survivors back to
  /// back, as the store unit wrote them to the result staging area.
  std::vector<std::uint8_t> records;
};

class PeShard {
 public:
  /// `axi` is the platform's interconnect config (`CosmosConfig::axi`):
  /// the beat cap, read latency and response window of the shard's
  /// channel pair. `arm_watchdog` arms the bench kernel's ready/valid
  /// watchdog with the timing model's horizon (mirrors the platform
  /// under a fault profile). `enable_trace` attaches
  /// the shard-local TraceSink so the PE emits per-chunk spans; the
  /// executor later appends them to the platform sink under a "shardN."
  /// lane prefix. `trace_ctx` (trace_id 0 = none) propagates the request
  /// context into the bench so per-chunk spans carry the request tag;
  /// flow ids are request-derived, so the merged trace keeps its causal
  /// links for every shard count.
  PeShard(std::size_t shard_id, const hwgen::PEDesign& design,
          const platform::TimingConfig& timing,
          hwsim::AxiInterconnect::Config axi, bool arm_watchdog,
          bool enable_trace,
          obs::RequestContext trace_ctx = obs::RequestContext{},
          hwsim::SimMode sim_mode = hwsim::sim_mode_from_env());

  /// Processes one block payload (records only, no trailer).
  /// `reconfigure` controls whether the filter-stage registers are written
  /// (the firmware skips reconfiguration when the predicate is unchanged
  /// across blocks of one scan — only addresses/size change). Safe to call
  /// from exactly one thread at a time.
  [[nodiscard]] HwBlockResult process_block(
      std::span<const std::uint8_t> payload,
      const std::vector<BoundPredicate>& predicates, bool collect,
      bool reconfigure);

  /// Starts a new executor call on a reused shard: resets the bench kernel
  /// (cycle counter, module and stream state) so the call runs exactly as
  /// on a freshly built shard, forces the next dispatch to reprogram the
  /// filter registers, drops the previous call's metric values and trace
  /// events (the executor merged them already), and tags the call's spans
  /// with `trace_ctx`. `enable_trace` attaches the shard-local TraceSink.
  void begin_call(obs::RequestContext trace_ctx, bool enable_trace);

  /// Configures the PE's aggregation unit (AggOp::kNone = pass-through).
  void set_aggregate(hwgen::AggOp op, std::uint32_t field_select);
  [[nodiscard]] bool supports_aggregation() noexcept;

  [[nodiscard]] const hwgen::PEDesign& design() noexcept {
    return bench_.pe().design();
  }
  [[nodiscard]] std::size_t shard_id() const noexcept { return shard_id_; }
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept {
    return bench_.observability().metrics;
  }
  [[nodiscard]] const obs::TraceSink& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] bool tracing() const noexcept { return tracing_; }
  /// True once a block was dispatched without reconfiguring being forced
  /// (predicate registers are already programmed).
  [[nodiscard]] bool configured() const noexcept { return configured_; }
  /// Forces the next dispatch to reprogram the filter registers (used
  /// after an injected hang: firmware resets the PE).
  void invalidate_config() noexcept { configured_ = false; }

 private:
  std::size_t shard_id_;
  const platform::TimingConfig& timing_;
  obs::TraceSink trace_;
  bool tracing_ = false;
  hwsim::PETestBench bench_;
  std::uint64_t src_staging_ = 0;
  std::uint64_t dst_staging_ = 0;
  bool configured_ = false;
};

}  // namespace ndpgen::ndp
