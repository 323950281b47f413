// Simulated processing element: executable composition of a PEDesign.
//
// SimulatedPE instantiates the simulated template modules for a generated
// (or baseline) design, wires their elastic streams, and exposes the MMIO
// interface decoded through the generated RegisterMap — the same addresses
// the generated software interface (swif_generator) uses. A PE registers
// its modules into a caller-provided SimKernel so that multiple PEs plus
// the shared AXI interconnect advance in lock-step.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "hwgen/pe_design.hpp"
#include "hwsim/aggregate_unit.hpp"
#include "obs/obs.hpp"
#include "hwsim/filter_stage.hpp"
#include "hwsim/load_unit.hpp"
#include "hwsim/memport.hpp"
#include "hwsim/regfile.hpp"
#include "hwsim/store_unit.hpp"
#include "hwsim/transform_unit.hpp"
#include "hwsim/tuple_buffer.hpp"

namespace ndpgen::hwsim {

/// Statistics of one processed chunk.
struct ChunkStats {
  std::uint64_t cycles = 0;
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_out = 0;
  std::uint64_t payload_bytes_in = 0;
  std::uint64_t payload_bytes_out = 0;
  std::uint64_t bytes_read = 0;     ///< Including static-mode padding.
  std::uint64_t bytes_written = 0;  ///< Including static-mode padding.
  // Kernel-cycle classification over this chunk's run window. Invariant:
  // cycles_useful + cycles_stalled + cycles_idle == cycles.
  std::uint64_t cycles_useful = 0;   ///< A stream transfer committed.
  std::uint64_t cycles_stalled = 0;  ///< In-flight work, nothing moved.
  std::uint64_t cycles_idle = 0;     ///< Pipeline fully drained.
  std::vector<std::uint64_t> stage_pass_counts;
  std::vector<std::uint64_t> stage_stall_in;   ///< Per filter stage.
  std::vector<std::uint64_t> stage_stall_out;  ///< Per filter stage.
  // Aggregation extension (valid when the PE has an aggregate unit and a
  // non-kNone op was configured):
  std::uint64_t agg_result = 0;  ///< Raw 64-bit result bits.
  std::uint64_t agg_folded = 0;  ///< Tuples folded into the aggregate.
};

class SimulatedPE final : public Module {
 public:
  /// Builds the PE and registers all modules (and itself) with `kernel`.
  /// The interconnect must already be registered with the same kernel.
  SimulatedPE(const hwgen::PEDesign& design, SimKernel& kernel,
              AxiInterconnect& interconnect);

  // --- MMIO (host/firmware side) -------------------------------------
  void mmio_write(std::uint32_t offset, std::uint32_t value);
  [[nodiscard]] std::uint32_t mmio_read(std::uint32_t offset) const;

  [[nodiscard]] bool busy() const noexcept {
    return running_ || start_pending_;
  }

  // --- Module interface (internal sequencing) ------------------------
  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override { return !busy(); }
  [[nodiscard]] std::uint64_t next_activity(
      std::uint64_t now) const noexcept override {
    return busy() ? now + 1 : kNeverActive;
  }

  /// Drives the kernel until this PE's current run completes (the START
  /// bit must have been written). In fast mode this dispatches to the
  /// fused analytic chunk engine when the kernel state is eligible,
  /// producing byte-identical stats/metrics/traces at a fraction of the
  /// wall-clock cost; otherwise (exact mode, foreign in-flight state,
  /// structural boundaries like an armed-watchdog trip) it falls back to
  /// the cycle-exact run_until loop.
  void run_to_completion(std::uint64_t max_cycles = 100'000'000);

  /// Statistics of the most recently completed run.
  [[nodiscard]] const ChunkStats& last_stats() const noexcept {
    return last_stats_;
  }

  [[nodiscard]] const hwgen::PEDesign& design() const noexcept {
    return design_;
  }
  [[nodiscard]] const hwgen::RegisterMap& regmap() const noexcept {
    return regs_.map();
  }

 private:
  friend class FastChunkEngine;

  void start_run(std::uint64_t now);
  void finish_run(std::uint64_t now);
  void publish_observability(std::uint64_t now);
  [[nodiscard]] bool pipeline_upstream_drained() const noexcept;

  hwgen::PEDesign design_;
  SimKernel* kernel_;  ///< Non-owning; carries the observability context.
  AxiInterconnect* interconnect_;  ///< Non-owning; for the fused engine.
  SimRegFile regs_;
  // Separate read/write masters, mirroring the independent AXI4 read and
  // write channels (sharing one port can deadlock the elastic pipeline:
  // the store would wait behind the load's read window).
  AxiPort* read_port_;
  AxiPort* write_port_;

  Stream<std::uint64_t>* words_in_;
  std::vector<Stream<Tuple>*> tuple_streams_;  ///< in-buffer ... out-buffer.
  Stream<std::uint64_t>* words_out_;

  std::unique_ptr<SimLoadUnit> load_;
  std::unique_ptr<SimTupleInputBuffer> in_buffer_;
  std::vector<std::unique_ptr<SimFilterStage>> stages_;
  std::unique_ptr<SimAggregateUnit> aggregate_;  ///< Optional extension.
  std::unique_ptr<SimTransformUnit> transform_;
  std::unique_ptr<SimTupleOutputBuffer> out_buffer_;
  std::unique_ptr<SimStoreUnit> store_;

  bool running_ = false;
  bool start_pending_ = false;
  std::uint64_t run_start_cycle_ = 0;
  CycleStats run_start_classes_;  ///< Kernel stats snapshot at start_run.
  ChunkStats last_stats_;
};

/// Configuration of a PETestBench.
struct PEBenchConfig {
  /// Size of the bench memory: the PS-DRAM the PE reads and writes over
  /// the AXI interconnect.
  std::size_t memory_bytes = 8 * 1024 * 1024;
  AxiInterconnect::Config axi{};
  /// Exact ticking vs event-driven fast-forward (results are identical
  /// either way; see SimMode).
  SimMode sim_mode = sim_mode_from_env();
};

/// Self-contained harness for single-PE experiments and unit tests:
/// owns memory, interconnect, kernel and the PE.
class PETestBench {
 public:
  explicit PETestBench(const hwgen::PEDesign& design,
                       PEBenchConfig config = PEBenchConfig());

  [[nodiscard]] SimMemory& memory() noexcept { return memory_; }
  [[nodiscard]] SimulatedPE& pe() noexcept { return *pe_; }
  [[nodiscard]] SimKernel& kernel() noexcept { return kernel_; }
  [[nodiscard]] AxiInterconnect& interconnect() noexcept {
    return *interconnect_;
  }
  /// Metrics registry + trace attachment point for the whole bench;
  /// attach a TraceSink via `observability().trace = &sink`.
  [[nodiscard]] obs::Observability& observability() noexcept { return obs_; }

  /// Configures one filter stage through MMIO (like the generated
  /// software interface's <pe>_set_filter).
  void set_filter(std::uint32_t stage, std::uint32_t field_sel,
                  std::uint32_t op_encoding, std::uint64_t compare_value);

  /// Runs one chunk synchronously; returns the PE statistics.
  ChunkStats run_chunk(std::uint64_t src_addr, std::uint64_t dst_addr,
                       std::uint32_t payload_bytes);

 private:
  SimMemory memory_;
  obs::Observability obs_;
  SimKernel kernel_;
  std::unique_ptr<AxiInterconnect> interconnect_;
  std::unique_ptr<SimulatedPE> pe_;
};

}  // namespace ndpgen::hwsim
