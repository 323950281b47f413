#include "hwsim/pe_sim.hpp"

#include "hwsim/fast_path.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

namespace hw = ndpgen::hwgen;

SimulatedPE::SimulatedPE(const hw::PEDesign& design, SimKernel& kernel,
                         AxiInterconnect& interconnect)
    : Module("pe_" + design.name),
      design_(design),
      kernel_(&kernel),
      interconnect_(&interconnect),
      regs_(design.regmap) {
  design_.validate();
  read_port_ = interconnect.create_port(design.name + ".rd");
  write_port_ = interconnect.create_port(design.name + ".wr");

  const bool configurable =
      design_.flavor == hw::DesignFlavor::kGenerated;
  const std::uint32_t stages = design_.filter_stage_count();
  const std::size_t depth = design_.fifo_depth;

  const bool aggregation =
      design_.find_module("aggregate_unit") != nullptr;
  words_in_ = kernel.make_stream<std::uint64_t>(design.name + ".words_in",
                                                /*depth=*/8);
  // Tuple streams: in-buffer -> stage0 -> ... [-> aggregate] -> transform
  // -> out-buffer.
  for (std::uint32_t i = 0; i < stages + 2 + (aggregation ? 1 : 0); ++i) {
    tuple_streams_.push_back(kernel.make_stream<Tuple>(
        design.name + ".tuples_" + std::to_string(i), depth));
  }
  words_out_ = kernel.make_stream<std::uint64_t>(design.name + ".words_out",
                                                 /*depth=*/8);

  load_ = std::make_unique<SimLoadUnit>(
      design.name + ".load", read_port_, words_in_,
      design_.parser.chunk_size_bytes, configurable);
  in_buffer_ = std::make_unique<SimTupleInputBuffer>(
      design.name + ".tuple_in", design_.parser.input, words_in_,
      tuple_streams_.front());
  for (std::uint32_t i = 0; i < stages; ++i) {
    stages_.push_back(std::make_unique<SimFilterStage>(
        design.name + ".filter_" + std::to_string(i), design_.parser.input,
        design_.operators, tuple_streams_[i], tuple_streams_[i + 1]));
  }
  std::uint32_t cursor = stages;
  if (aggregation) {
    aggregate_ = std::make_unique<SimAggregateUnit>(
        design.name + ".aggregate", design_.parser.input,
        tuple_streams_[cursor], tuple_streams_[cursor + 1]);
    ++cursor;
  }
  transform_ = std::make_unique<SimTransformUnit>(
      design.name + ".transform", design_.parser, tuple_streams_[cursor],
      tuple_streams_[cursor + 1]);
  out_buffer_ = std::make_unique<SimTupleOutputBuffer>(
      design.name + ".tuple_out", design_.parser.output,
      tuple_streams_[cursor + 1], words_out_);
  store_ = std::make_unique<SimStoreUnit>(design.name + ".store", write_port_,
                                          words_out_,
                                          design_.parser.chunk_size_bytes,
                                          configurable);

  kernel.add_module(load_.get());
  kernel.add_module(in_buffer_.get());
  for (auto& stage : stages_) kernel.add_module(stage.get());
  if (aggregate_ != nullptr) kernel.add_module(aggregate_.get());
  kernel.add_module(transform_.get());
  kernel.add_module(out_buffer_.get());
  kernel.add_module(store_.get());
  kernel.add_module(this);  // Sequencer runs after the datapath.
}

void SimulatedPE::mmio_write(std::uint32_t offset, std::uint32_t value) {
  regs_.mmio_write(offset, value);
  if (offset == regs_.map().offset_of(hw::reg::kStart) && (value & 1u)) {
    if (running_) {
      ndpgen::raise(ErrorKind::kSimulation,
                    "START written while PE '" + design_.name + "' is busy");
    }
    start_pending_ = true;
  }
}

std::uint32_t SimulatedPE::mmio_read(std::uint32_t offset) const {
  return regs_.mmio_read(offset);
}

void SimulatedPE::start_run(std::uint64_t now) {
  const std::uint64_t src =
      regs_.value64(hw::reg::kInAddrLo, hw::reg::kInAddrHi);
  const std::uint64_t dst =
      regs_.value64(hw::reg::kOutAddrLo, hw::reg::kOutAddrHi);
  const bool configurable =
      design_.flavor == hw::DesignFlavor::kGenerated;
  // Baseline designs hard-code the per-block payload geometry; generated
  // designs take it from the IN_SIZE register.
  const std::uint32_t in_size =
      configurable
          ? regs_.value(hw::reg::kInSize)
          : (design_.static_payload_bytes != 0
                 ? design_.static_payload_bytes
                 : design_.parser.chunk_size_bytes);
  NDPGEN_CHECK_ARG(in_size <= design_.parser.chunk_size_bytes,
                   "IN_SIZE exceeds the PE chunk size");

  for (std::uint32_t i = 0; i < stages_.size(); ++i) {
    const std::uint32_t field = regs_.value(hw::reg::filter_field(i));
    const std::uint32_t op = regs_.value(hw::reg::filter_op(i));
    const std::uint64_t compare =
        regs_.value64(hw::reg::filter_value_lo(i), hw::reg::filter_value_hi(i));
    stages_[i]->configure(field, op, compare);
    stages_[i]->start();
  }

  if (aggregate_ != nullptr) {
    const std::uint32_t op = regs_.value(hw::reg::kAggOp);
    NDPGEN_CHECK_ARG(op <= static_cast<std::uint32_t>(hw::AggOp::kMax),
                     "invalid AGG_OP value");
    aggregate_->configure(static_cast<hw::AggOp>(op),
                          regs_.value(hw::reg::kAggField));
    aggregate_->start();
  }

  load_->start(src, in_size);
  in_buffer_->start(std::uint64_t{in_size} * 8);
  out_buffer_->start();
  store_->start(dst);

  running_ = true;
  run_start_cycle_ = now;
  // Snapshot the kernel's cycle classification; finish_run diffs against
  // it to attribute this chunk's window. Both start_run and finish_run
  // execute inside a tick BEFORE the kernel classifies it, so the delta
  // covers exactly `cycles` ticks.
  run_start_classes_ = kernel_->cycle_stats();
  regs_.hw_set(hw::reg::kBusy, 1);
}

bool SimulatedPE::pipeline_upstream_drained() const noexcept {
  if (!load_->done() || !in_buffer_->idle()) return false;
  if (!words_in_->empty()) return false;
  for (const auto* stream : tuple_streams_) {
    if (!stream->empty()) return false;
  }
  return true;
}

void SimulatedPE::cycle(std::uint64_t now) {
  if (start_pending_) {
    start_pending_ = false;
    // Self-clearing START bit, as in the generated hardware.
    regs_.hw_set(hw::reg::kStart, 0);
    start_run(now);
    return;
  }
  if (!running_) return;
  const bool drained = pipeline_upstream_drained();
  out_buffer_->set_upstream_done(drained);
  store_->set_upstream_done(drained && out_buffer_->idle());
  if (store_->done() && read_port_->idle() && write_port_->idle()) {
    finish_run(now);
  }
}

void SimulatedPE::finish_run(std::uint64_t now) {
  running_ = false;
  last_stats_.cycles = now - run_start_cycle_;
  last_stats_.tuples_in = in_buffer_->tuples_produced();
  last_stats_.tuples_out = out_buffer_->tuples_consumed();
  last_stats_.payload_bytes_in = load_->payload_bits() / 8;
  last_stats_.payload_bytes_out = out_buffer_->payload_bytes();
  last_stats_.bytes_read = load_->bytes_transferred();
  last_stats_.bytes_written = store_->bytes_transferred();
  const CycleStats classes = kernel_->cycle_stats() - run_start_classes_;
  last_stats_.cycles_useful = classes.useful;
  last_stats_.cycles_stalled = classes.stalled;
  last_stats_.cycles_idle = classes.idle;
  last_stats_.stage_pass_counts.clear();
  last_stats_.stage_stall_in.clear();
  last_stats_.stage_stall_out.clear();
  for (const auto& stage : stages_) {
    last_stats_.stage_pass_counts.push_back(stage->pass_count());
    last_stats_.stage_stall_in.push_back(stage->stall_in_count());
    last_stats_.stage_stall_out.push_back(stage->stall_out_count());
  }

  regs_.hw_set(hw::reg::kBusy, 0);
  regs_.hw_set(hw::reg::kOutSize,
               static_cast<std::uint32_t>(last_stats_.payload_bytes_out));
  regs_.hw_set(hw::reg::kTupleCount,
               static_cast<std::uint32_t>(last_stats_.tuples_out));
  regs_.hw_set(hw::reg::kFilterCounter,
               static_cast<std::uint32_t>(
                   stages_.empty() ? 0 : stages_.back()->pass_count()));
  regs_.hw_set(hw::reg::kCycleCounter,
               static_cast<std::uint32_t>(last_stats_.cycles));
  if (aggregate_ != nullptr) {
    last_stats_.agg_result = aggregate_->result();
    last_stats_.agg_folded = aggregate_->folded();
    regs_.hw_set(hw::reg::kAggResultLo,
                 static_cast<std::uint32_t>(aggregate_->result()));
    regs_.hw_set(hw::reg::kAggResultHi,
                 static_cast<std::uint32_t>(aggregate_->result() >> 32));
    regs_.hw_set(hw::reg::kAggCount,
                 static_cast<std::uint32_t>(aggregate_->folded()));
  }
  if (kernel_->observability() != nullptr) publish_observability(now);
}

void SimulatedPE::publish_observability(std::uint64_t now) {
  obs::Observability& obs = *kernel_->observability();
  obs::MetricsRegistry& m = obs.metrics;
  const std::string prefix = "hwsim." + design_.name + ".";
  m.add(m.counter(prefix + "chunks"), 1);
  m.add(m.counter(prefix + "cycles"), last_stats_.cycles);
  m.add(m.counter(prefix + "tuples_in"), last_stats_.tuples_in);
  m.add(m.counter(prefix + "tuples_out"), last_stats_.tuples_out);
  m.add(m.counter(prefix + "bytes_read"), last_stats_.bytes_read);
  m.add(m.counter(prefix + "bytes_written"), last_stats_.bytes_written);
  m.observe(m.histogram(prefix + "chunk_cycles"), last_stats_.cycles);
  // Cycle classification, per design and rolled up globally (the global
  // counters feed platform.publish_metrics's hwsim.idle_cycle_fraction).
  m.add(m.counter(prefix + "cycles_useful"), last_stats_.cycles_useful);
  m.add(m.counter(prefix + "cycles_stalled"), last_stats_.cycles_stalled);
  m.add(m.counter(prefix + "cycles_idle"), last_stats_.cycles_idle);
  m.add(m.counter("hwsim.cycles_useful"), last_stats_.cycles_useful);
  m.add(m.counter("hwsim.cycles_stalled"), last_stats_.cycles_stalled);
  m.add(m.counter("hwsim.cycles_idle"), last_stats_.cycles_idle);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const std::string stage = prefix + "filter_" + std::to_string(i) + ".";
    m.add(m.counter(stage + "pass"), stages_[i]->pass_count());
    m.add(m.counter(stage + "drop"), stages_[i]->drop_count());
    m.add(m.counter(stage + "stall_in"), stages_[i]->stall_in_count());
    m.add(m.counter(stage + "stall_out"), stages_[i]->stall_out_count());
  }
  // FIFO high-water marks cover all kernel streams (this PE's streams are
  // name-prefixed, so a multi-PE kernel stays unambiguous).
  for (const auto& stream : kernel_->streams()) {
    m.raise(m.gauge("hwsim.fifo." + stream->name() + ".high_water"),
            stream->high_water());
  }
  if (obs.tracing()) {
    // hwsim events live on the PE-cycle timeline: pid 2, 10 ns per cycle.
    const obs::TrackId track =
        obs.trace->track("pe." + design_.name, obs::kPidHwsim);
    const std::uint64_t kNsPerCycle = 10;
    std::string args =
        "{\"tuples_in\":" + std::to_string(last_stats_.tuples_in) +
        ",\"tuples_out\":" + std::to_string(last_stats_.tuples_out) +
        ",\"cycles\":" + std::to_string(last_stats_.cycles);
    // Tag the chunk with the request that caused it so the hwsim timeline
    // joins the request's causal span tree.
    if (obs.request_ctx.active()) {
      args += ",\"ctx\":" + std::to_string(obs.request_ctx.trace_id);
    }
    args += "}";
    obs.trace->complete(track, "chunk", "hwsim",
                        run_start_cycle_ * kNsPerCycle,
                        (now - run_start_cycle_) * kNsPerCycle,
                        std::move(args));
  }
}

void SimulatedPE::reset() {
  running_ = false;
  start_pending_ = false;
  regs_.reset();
  last_stats_ = ChunkStats{};
}

void SimulatedPE::run_to_completion(std::uint64_t max_cycles) {
  if (kernel_->mode() == SimMode::kFast &&
      FastChunkEngine::run(*kernel_, *this, max_cycles)) {
    return;
  }
  kernel_->run_until([this] { return !busy(); }, max_cycles);
}

PETestBench::PETestBench(const hw::PEDesign& design, PEBenchConfig config)
    : memory_(config.memory_bytes) {
  kernel_.set_observability(&obs_);
  kernel_.set_mode(config.sim_mode);
  interconnect_ = std::make_unique<AxiInterconnect>(memory_, config.axi);
  kernel_.add_module(interconnect_.get());
  pe_ = std::make_unique<SimulatedPE>(design, kernel_, *interconnect_);
}

void PETestBench::set_filter(std::uint32_t stage, std::uint32_t field_sel,
                             std::uint32_t op_encoding,
                             std::uint64_t compare_value) {
  const auto& map = pe_->regmap();
  pe_->mmio_write(map.offset_of(hw::reg::filter_field(stage)), field_sel);
  pe_->mmio_write(map.offset_of(hw::reg::filter_value_lo(stage)),
                  static_cast<std::uint32_t>(compare_value));
  pe_->mmio_write(map.offset_of(hw::reg::filter_value_hi(stage)),
                  static_cast<std::uint32_t>(compare_value >> 32));
  pe_->mmio_write(map.offset_of(hw::reg::filter_op(stage)), op_encoding);
}

ChunkStats PETestBench::run_chunk(std::uint64_t src_addr,
                                  std::uint64_t dst_addr,
                                  std::uint32_t payload_bytes) {
  const auto& map = pe_->regmap();
  pe_->mmio_write(map.offset_of(hw::reg::kInAddrLo),
                  static_cast<std::uint32_t>(src_addr));
  pe_->mmio_write(map.offset_of(hw::reg::kInAddrHi),
                  static_cast<std::uint32_t>(src_addr >> 32));
  pe_->mmio_write(map.offset_of(hw::reg::kOutAddrLo),
                  static_cast<std::uint32_t>(dst_addr));
  pe_->mmio_write(map.offset_of(hw::reg::kOutAddrHi),
                  static_cast<std::uint32_t>(dst_addr >> 32));
  if (map.find(hw::reg::kInSize) != nullptr) {
    pe_->mmio_write(map.offset_of(hw::reg::kInSize), payload_bytes);
  }
  pe_->mmio_write(map.offset_of(hw::reg::kStart), 1);
  pe_->run_to_completion();
  return pe_->last_stats();
}

}  // namespace ndpgen::hwsim
