#include "hwsim/pe_sim.hpp"

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
  reg_ = Registers{
      .start = regs_.slot(hw::reg::kStart),
      .busy = regs_.slot(hw::reg::kBusy),
      .in_addr_lo = regs_.slot(hw::reg::kInAddrLo),
      .in_addr_hi = regs_.slot(hw::reg::kInAddrHi),
      .out_addr_lo = regs_.slot(hw::reg::kOutAddrLo),
      .out_addr_hi = regs_.slot(hw::reg::kOutAddrHi),
      .in_size = regs_.slot(hw::reg::kInSize),
      .out_size = regs_.slot(hw::reg::kOutSize),
      .tuple_count = regs_.slot(hw::reg::kTupleCount),
      .filter_counter = regs_.slot(hw::reg::kFilterCounter),
      .cycle_counter = regs_.slot(hw::reg::kCycleCounter),
      .agg_op = regs_.slot(hw::reg::kAggOp),
      .agg_field = regs_.slot(hw::reg::kAggField),
      .agg_result_lo = regs_.slot(hw::reg::kAggResultLo),
      .agg_result_hi = regs_.slot(hw::reg::kAggResultHi),
      .agg_count = regs_.slot(hw::reg::kAggCount),
      .stages = {}};

  const bool configurable =
      design_.flavor == hw::DesignFlavor::kGenerated;
  const std::uint32_t stages = design_.filter_stage_count();
  const std::size_t depth = hw::kFifoDepth;

  const bool aggregation =
      design_.find_module("aggregate_unit") != nullptr;
  // The memory model moves one std::uint64_t per AXI beat.
  static_assert(hw::kDataWidthBits == 64);
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
      design.name + ".load", &interconnect.read_channel(), words_in_,
      design_.parser.chunk_size_bytes, configurable);
  in_buffer_ = std::make_unique<SimTupleInputBuffer>(
      design.name + ".tuple_in", design_.parser.input, words_in_,
      tuple_streams_.front());
  for (std::uint32_t i = 0; i < stages; ++i) {
    reg_.stages.push_back(Registers::Stage{
        regs_.slot(hw::reg::filter_field(i)),
        regs_.slot(hw::reg::filter_op(i)),
        regs_.slot(hw::reg::filter_value_lo(i)),
        regs_.slot(hw::reg::filter_value_hi(i))});
    stages_.push_back(std::make_unique<SimFilterStage>(
        design.name + ".filter_" + std::to_string(i), design_.parser.plan,
        design_.operators, tuple_streams_[i], tuple_streams_[i + 1]));
  }
  std::uint32_t cursor = stages;
  if (aggregation) {
    aggregate_ = std::make_unique<SimAggregateUnit>(
        design.name + ".aggregate", design_.parser.plan,
        tuple_streams_[cursor], tuple_streams_[cursor + 1]);
    ++cursor;
  }
  transform_ = std::make_unique<SimTransformUnit>(
      design.name + ".transform", design_.parser, tuple_streams_[cursor],
      tuple_streams_[cursor + 1]);
  out_buffer_ = std::make_unique<SimTupleOutputBuffer>(
      design.name + ".tuple_out", design_.parser.output,
      tuple_streams_[cursor + 1], words_out_);
  store_ = std::make_unique<SimStoreUnit>(
      design.name + ".store", &interconnect.write_channel(), words_out_,
      design_.parser.chunk_size_bytes, configurable);

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
  if (offset == regs_.offset(reg_.start) && (value & 1u)) {
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
  const std::uint64_t src = regs_.value64(reg_.in_addr_lo, reg_.in_addr_hi);
  const std::uint64_t dst =
      regs_.value64(reg_.out_addr_lo, reg_.out_addr_hi);
  const bool configurable =
      design_.flavor == hw::DesignFlavor::kGenerated;
  // Baseline designs hard-code the per-block payload geometry; generated
  // designs take it from the IN_SIZE register.
  const std::uint32_t in_size =
      configurable
          ? regs_.value(reg_.in_size)
          : (design_.static_payload_bytes != 0
                 ? design_.static_payload_bytes
                 : design_.parser.chunk_size_bytes);
  NDPGEN_CHECK_ARG(in_size <= design_.parser.chunk_size_bytes,
                   "IN_SIZE exceeds the PE chunk size");

  for (std::uint32_t i = 0; i < stages_.size(); ++i) {
    const Registers::Stage& stage = reg_.stages[i];
    stages_[i]->configure(regs_.value(stage.field), regs_.value(stage.op),
                          regs_.value64(stage.value_lo, stage.value_hi));
    stages_[i]->start();
  }

  if (aggregate_ != nullptr) {
    const std::uint32_t op = regs_.value(reg_.agg_op);
    NDPGEN_CHECK_ARG(op <= static_cast<std::uint32_t>(hw::AggOp::kMax),
                     "invalid AGG_OP value");
    aggregate_->configure(static_cast<hw::AggOp>(op),
                          regs_.value(reg_.agg_field));
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
  regs_.hw_set(reg_.busy, 1);
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
    regs_.hw_set(reg_.start, 0);
    start_run(now);
    return;
  }
  if (!running_) return;
  const bool drained = pipeline_upstream_drained();
  out_buffer_->set_upstream_done(drained);
  store_->set_upstream_done(drained && out_buffer_->idle());
  if (store_->done() && interconnect_->idle()) {
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

  regs_.hw_set(reg_.busy, 0);
  regs_.hw_set(reg_.out_size,
               static_cast<std::uint32_t>(last_stats_.payload_bytes_out));
  regs_.hw_set(reg_.tuple_count,
               static_cast<std::uint32_t>(last_stats_.tuples_out));
  regs_.hw_set(reg_.filter_counter,
               static_cast<std::uint32_t>(
                   stages_.empty() ? 0 : stages_.back()->pass_count()));
  regs_.hw_set(reg_.cycle_counter,
               static_cast<std::uint32_t>(last_stats_.cycles));
  if (aggregate_ != nullptr) {
    last_stats_.agg_result = aggregate_->result();
    last_stats_.agg_folded = aggregate_->folded();
    regs_.hw_set(reg_.agg_result_lo,
                 static_cast<std::uint32_t>(aggregate_->result()));
    regs_.hw_set(reg_.agg_result_hi,
                 static_cast<std::uint32_t>(aggregate_->result() >> 32));
    regs_.hw_set(reg_.agg_count,
                 static_cast<std::uint32_t>(aggregate_->folded()));
  }
  if (kernel_->observability() != nullptr) publish_observability(now);
}

void SimulatedPE::publish_observability(std::uint64_t now) {
  obs::Observability& obs = *kernel_->observability();
  obs::MetricsRegistry& m = obs.metrics;
  const auto& streams = kernel_->streams();
  if (metrics_.registry != &m) {
    const std::string prefix = "hwsim." + design_.name + ".";
    metrics_ = Metrics{
        .registry = &m,
        .chunks = m.counter(prefix + "chunks"),
        .cycles = m.counter(prefix + "cycles"),
        .tuples_in = m.counter(prefix + "tuples_in"),
        .tuples_out = m.counter(prefix + "tuples_out"),
        .bytes_read = m.counter(prefix + "bytes_read"),
        .bytes_written = m.counter(prefix + "bytes_written"),
        .cycles_useful = m.counter(prefix + "cycles_useful"),
        .cycles_stalled = m.counter(prefix + "cycles_stalled"),
        .cycles_idle = m.counter(prefix + "cycles_idle"),
        .all_useful = m.counter("hwsim.cycles_useful"),
        .all_stalled = m.counter("hwsim.cycles_stalled"),
        .all_idle = m.counter("hwsim.cycles_idle"),
        .chunk_cycles = m.histogram(prefix + "chunk_cycles"),
        .stages = {},
        .high_water = {}};
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      const std::string stage = prefix + "filter_" + std::to_string(i) + ".";
      metrics_.stages.push_back(Metrics::Stage{
          m.counter(stage + "pass"), m.counter(stage + "drop"),
          m.counter(stage + "stall_in"), m.counter(stage + "stall_out")});
    }
  }
  // FIFO high-water marks cover all kernel streams: this PE's own, named
  // after the design, and any a test adds after it.
  for (std::size_t i = metrics_.high_water.size(); i < streams.size(); ++i) {
    metrics_.high_water.push_back(
        m.gauge("hwsim.fifo." + streams[i]->name() + ".high_water"));
  }
  m.add(metrics_.chunks, 1);
  m.add(metrics_.cycles, last_stats_.cycles);
  m.add(metrics_.tuples_in, last_stats_.tuples_in);
  m.add(metrics_.tuples_out, last_stats_.tuples_out);
  m.add(metrics_.bytes_read, last_stats_.bytes_read);
  m.add(metrics_.bytes_written, last_stats_.bytes_written);
  m.observe(metrics_.chunk_cycles, last_stats_.cycles);
  // Cycle classification, per design and rolled up globally (the global
  // counters feed platform.publish_metrics's hwsim.idle_cycle_fraction).
  m.add(metrics_.cycles_useful, last_stats_.cycles_useful);
  m.add(metrics_.cycles_stalled, last_stats_.cycles_stalled);
  m.add(metrics_.cycles_idle, last_stats_.cycles_idle);
  m.add(metrics_.all_useful, last_stats_.cycles_useful);
  m.add(metrics_.all_stalled, last_stats_.cycles_stalled);
  m.add(metrics_.all_idle, last_stats_.cycles_idle);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    const Metrics::Stage& stage = metrics_.stages[i];
    m.add(stage.pass, stages_[i]->pass_count());
    m.add(stage.drop, stages_[i]->drop_count());
    m.add(stage.stall_in, stages_[i]->stall_in_count());
    m.add(stage.stall_out, stages_[i]->stall_out_count());
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    m.raise(metrics_.high_water[i], streams[i]->high_water());
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

PETestBench::PETestBench(const hw::PEDesign& design, PEBenchConfig config)
    : memory_(config.memory_bytes),
      sim_mode_(config.sim_mode),
      interconnect_(memory_, config.axi) {
  kernel_.set_observability(&obs_);
  kernel_.add_module(&interconnect_);
  pe_.reset(new SimulatedPE(design, kernel_, interconnect_));
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

void PETestBench::start_chunk(std::uint64_t src_addr, std::uint64_t dst_addr,
                              std::uint32_t payload_bytes) {
  const SimRegFile& regs = pe_->regs_;
  const SimulatedPE::Registers& reg = pe_->reg_;
  pe_->mmio_write(regs.offset(reg.in_addr_lo),
                  static_cast<std::uint32_t>(src_addr));
  pe_->mmio_write(regs.offset(reg.in_addr_hi),
                  static_cast<std::uint32_t>(src_addr >> 32));
  pe_->mmio_write(regs.offset(reg.out_addr_lo),
                  static_cast<std::uint32_t>(dst_addr));
  pe_->mmio_write(regs.offset(reg.out_addr_hi),
                  static_cast<std::uint32_t>(dst_addr >> 32));
  if (reg.in_size.present()) {
    pe_->mmio_write(regs.offset(reg.in_size), payload_bytes);
  }
  pe_->mmio_write(regs.offset(reg.start), 1);
}

ChunkStats PETestBench::run_chunk(std::uint64_t src_addr,
                                  std::uint64_t dst_addr,
                                  std::uint32_t payload_bytes) {
  start_chunk(src_addr, dst_addr, payload_bytes);
  constexpr std::uint64_t kMaxCycles = 100'000'000;
  if (sim_mode_ != SimMode::kFast ||
      !FastChunkEngine::run(*pe_, kMaxCycles)) {
    kernel_.run_until([this] { return !pe_->busy(); }, kMaxCycles);
  }
  return pe_->last_stats();
}

}  // namespace ndpgen::hwsim
