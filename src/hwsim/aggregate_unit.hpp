// Simulated Aggregation Unit (framework extension; paper §VII outlook:
// "more computational and analytical tasks could also be performed using
// this architecture").
//
// Sits between the filter chain and the transformation unit. In
// pass-through mode (AggOp::kNone) tuples flow on unchanged; in an
// aggregation mode it folds the selected field of every passing tuple
// into a running count/sum/min/max and consumes the tuple — the scan
// result is then just a pair of registers, eliminating the result
// write-back entirely.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/record_plan.hpp"
#include "hwgen/pe_design.hpp"
#include "hwsim/kernel.hpp"
#include "hwsim/stream.hpp"
#include "hwsim/tuple_buffer.hpp"

namespace ndpgen::hwsim {

class SimAggregateUnit final : public Module {
 public:
  SimAggregateUnit(std::string name, const analysis::RecordPlan& plan,
                   Stream<Tuple>* in, Stream<Tuple>* out);

  /// Runtime configuration from the control registers: resolves the
  /// field's hwgen::AggregateFold once per run.
  void configure(hwgen::AggOp op, std::uint32_t field_select);

  /// Seeds the accumulator for a new run.
  void start();

  void cycle(std::uint64_t now) override;
  void reset() override;

  [[nodiscard]] hwgen::AggOp op() const noexcept { return fold_.op(); }
  /// Raw 64-bit result in the accumulator encoding (the count for kCount).
  [[nodiscard]] std::uint64_t result() const noexcept { return result_; }
  [[nodiscard]] std::uint64_t folded() const noexcept { return folded_; }

 private:
  friend class FastChunkEngine;

  /// Folds one passing tuple's raw field word.
  void fold(std::uint64_t raw) noexcept {
    result_ = fold_.combine(result_, fold_.widen(raw));
  }

  Stream<Tuple>* in_;
  Stream<Tuple>* out_;
  const std::vector<analysis::PlanField>& fields_;  ///< Mux order.

  hwgen::AggregateFold fold_;
  std::uint32_t field_select_ = 0;
  std::uint64_t result_ = 0;
  std::uint64_t folded_ = 0;
};

}  // namespace ndpgen::hwsim
