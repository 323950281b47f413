// Simulated Filtering Unit (one chainable stage, Fig. 5).
//
// Dequeues one tuple per cycle, selects a field via the multiplexer,
// evaluates the configured compare operation against the compare value and
// enqueues the tuple into the output FIFO iff the predicate holds. The mux
// table is the parser's record plan; the field is read from the padded
// tuple, as the hardware does.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analysis/record_plan.hpp"
#include "hwgen/operators.hpp"
#include "hwsim/kernel.hpp"
#include "hwsim/stream.hpp"
#include "hwsim/tuple_buffer.hpp"

namespace ndpgen::hwsim {

class SimFilterStage final : public Module {
 public:
  SimFilterStage(std::string name, const analysis::RecordPlan& plan,
                 const hwgen::OperatorSet& operators, Stream<Tuple>* in,
                 Stream<Tuple>* out);

  /// Runtime configuration (driven by the control registers); binds the
  /// stage's compare kernel.
  void configure(std::uint32_t field_select, std::uint32_t operator_select,
                 std::uint64_t compare_value);

  /// Resets the pass counter at the beginning of a run.
  void start();

  void cycle(std::uint64_t now) override;
  void reset() override;

  [[nodiscard]] std::uint64_t pass_count() const noexcept {
    return pass_count_;
  }
  [[nodiscard]] std::uint64_t drop_count() const noexcept {
    return drop_count_;
  }
  /// Cycles spent waiting for input (valid deasserted upstream).
  [[nodiscard]] std::uint64_t stall_in_count() const noexcept {
    return stall_in_count_;
  }
  /// Cycles spent blocked on a full output FIFO (ready deasserted).
  [[nodiscard]] std::uint64_t stall_out_count() const noexcept {
    return stall_out_count_;
  }

 private:
  friend class FastChunkEngine;

  /// Selects and binds the kernel (empty for an unknown encoding, which
  /// cycle() raises on, as ticking a tuple through it would).
  void bind(std::uint32_t field_select, std::uint32_t operator_select,
            std::uint64_t compare_value);

  const hwgen::OperatorSet& operators_;
  Stream<Tuple>* in_;
  Stream<Tuple>* out_;
  const std::vector<analysis::PlanField>& fields_;  ///< Mux order.

  std::uint32_t field_select_ = 0;
  std::uint32_t operator_select_ = 0;
  std::optional<hwgen::CompareKernel> kernel_;
  std::uint64_t pass_count_ = 0;
  std::uint64_t drop_count_ = 0;
  std::uint64_t stall_in_count_ = 0;
  std::uint64_t stall_out_count_ = 0;
};

}  // namespace ndpgen::hwsim
