#include "ndp/pe_shard.hpp"

#include "kv/block_format.hpp"
#include "support/error.hpp"

namespace ndpgen::ndp {

namespace hw = ndpgen::hwgen;

platform::SimTime hw_dispatch_overhead(const platform::TimingConfig& timing,
                                       const hw::PEDesign& design,
                                       bool reconfigure) {
  const bool configurable = design.flavor == hw::DesignFlavor::kGenerated;
  // Address (4) + size (1, if configurable) + doorbell (1) + completion
  // readback (2) register accesses; 4 more per stage when reconfiguring.
  std::uint64_t accesses = 4 + (configurable ? 1 : 0) + 1 + 2;
  if (reconfigure) {
    accesses += std::uint64_t{4} * design.filter_stage_count();
  }
  return timing.firmware(accesses * timing.register_access +
                         timing.pe_dispatch_overhead);
}

PeShard::PeShard(std::size_t shard_id, const hw::PEDesign& design,
                 const platform::TimingConfig& timing,
                 hwsim::AxiInterconnect::Config axi, bool arm_watchdog,
                 bool enable_trace, obs::RequestContext trace_ctx,
                 hwsim::SimMode sim_mode)
    : shard_id_(shard_id),
      timing_(timing),
      bench_(design,
             hwsim::PEBenchConfig{.memory_bytes = 2 * kv::kDataBlockBytes,
                                  .axi = axi,
                                  .sim_mode = sim_mode}) {
  // Staging layout inside the bench's private memory: one data block of
  // input at the bottom, one block of output records above it.
  src_staging_ = 0;
  dst_staging_ = kv::kDataBlockBytes;
  if (arm_watchdog) bench_.kernel().set_watchdog(timing.pe_watchdog_cycles);
  begin_call(trace_ctx, enable_trace);
}

void PeShard::begin_call(obs::RequestContext trace_ctx, bool enable_trace) {
  bench_.kernel().reset();
  configured_ = false;
  bench_.observability().metrics.reset_values();
  trace_.clear();
  tracing_ = enable_trace;
  bench_.observability().trace = enable_trace ? &trace_ : nullptr;
  bench_.observability().request_ctx = trace_ctx;
}

bool PeShard::supports_aggregation() noexcept {
  return bench_.pe().regmap().find(hw::reg::kAggOp) != nullptr;
}

void PeShard::set_aggregate(hw::AggOp op, std::uint32_t field_select) {
  NDPGEN_CHECK_ARG(supports_aggregation(),
                   "PE was generated without an aggregation unit");
  const auto& map = bench_.pe().regmap();
  bench_.pe().mmio_write(map.offset_of(hw::reg::kAggOp),
                         static_cast<std::uint32_t>(op));
  bench_.pe().mmio_write(map.offset_of(hw::reg::kAggField), field_select);
}

HwBlockResult PeShard::process_block(
    std::span<const std::uint8_t> payload,
    const std::vector<BoundPredicate>& predicates, bool collect,
    bool reconfigure) {
  const hw::PEDesign& pe_design = design();
  NDPGEN_CHECK_ARG(payload.size() <= pe_design.parser.chunk_size_bytes,
                   "payload larger than the PE chunk size");
  const std::uint32_t stages = pe_design.filter_stage_count();
  NDPGEN_CHECK_ARG(predicates.size() == stages,
                   "predicates must be pre-bound to all stages "
                   "(use bind_conjunction)");
  const bool will_configure = reconfigure || !configured_;

  bench_.memory().write_bytes(src_staging_, payload);
  if (will_configure) {
    for (std::uint32_t stage = 0; stage < stages; ++stage) {
      const auto& predicate = predicates[stage];
      bench_.set_filter(stage, predicate.field_select, predicate.op_encoding,
                        predicate.compare_value);
    }
    configured_ = true;
  }

  HwBlockResult result;
  result.stats = bench_.run_chunk(src_staging_, dst_staging_,
                                  static_cast<std::uint32_t>(payload.size()));
  result.pe_time = timing_.pe_cycles_to_ns(result.stats.cycles);
  result.overhead = hw_dispatch_overhead(timing_, pe_design, will_configure);

  if (collect) {
    const std::uint32_t out_bytes = pe_design.parser.output.storage_bytes();
    const auto out = bench_.memory().read_bytes(
        dst_staging_, result.stats.tuples_out * std::uint64_t{out_bytes});
    result.records.assign(out.begin(), out.end());
  }
  return result;
}

}  // namespace ndpgen::ndp
