#include "hwsim/aggregate_unit.hpp"

#include <bit>
#include <limits>

#include "hwgen/operators.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

SimAggregateUnit::SimAggregateUnit(std::string name,
                                   const analysis::RecordPlan& plan,
                                   Stream<Tuple>* in, Stream<Tuple>* out)
    : Module(std::move(name)), in_(in), out_(out), fields_(plan.fields()) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "aggregate unit needs both streams");
}

void SimAggregateUnit::configure(hwgen::AggOp op, std::uint32_t field_select) {
  NDPGEN_CHECK_ARG(field_select < fields_.size(),
                   "aggregate field selector out of range");
  op_ = op;
  field_select_ = field_select;
}

void SimAggregateUnit::start() {
  folded_ = 0;
  const analysis::FieldInterp interp = fields_[field_select_].interp;
  switch (op_) {
    case hwgen::AggOp::kMin:
      result_ = ~std::uint64_t{0};
      if (interp == analysis::FieldInterp::kFloat) {
        result_ = std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity());
      } else if (interp == analysis::FieldInterp::kSigned) {
        result_ = static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max());
      }
      break;
    case hwgen::AggOp::kMax:
      result_ = 0;
      if (interp == analysis::FieldInterp::kFloat) {
        result_ = std::bit_cast<std::uint64_t>(
            -std::numeric_limits<double>::infinity());
      } else if (interp == analysis::FieldInterp::kSigned) {
        result_ = static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::min());
      }
      break;
    default:
      result_ = 0;
      break;
  }
}

void SimAggregateUnit::fold(std::uint64_t raw,
                            const analysis::PlanField& field) {
  switch (op_) {
    case hwgen::AggOp::kNone:
      return;
    case hwgen::AggOp::kCount:
      ++result_;
      return;
    case hwgen::AggOp::kSum:
      if (field.interp == analysis::FieldInterp::kFloat) {
        const double value =
            field.width_bits == 32
                ? static_cast<double>(std::bit_cast<float>(
                      static_cast<std::uint32_t>(raw)))
                : std::bit_cast<double>(raw);
        result_ = std::bit_cast<std::uint64_t>(
            std::bit_cast<double>(result_) + value);
      } else if (field.interp == analysis::FieldInterp::kSigned) {
        result_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(result_) +
            hwgen::sign_extend(raw, field.width_bits));
      } else {
        result_ += raw;
      }
      return;
    case hwgen::AggOp::kMin:
    case hwgen::AggOp::kMax: {
      bool take;
      if (field.interp == analysis::FieldInterp::kFloat) {
        const double current = std::bit_cast<double>(result_);
        const double value =
            field.width_bits == 32
                ? static_cast<double>(std::bit_cast<float>(
                      static_cast<std::uint32_t>(raw)))
                : std::bit_cast<double>(raw);
        take = op_ == hwgen::AggOp::kMin ? value < current : value > current;
        if (take) result_ = std::bit_cast<std::uint64_t>(value);
        return;
      }
      if (field.interp == analysis::FieldInterp::kSigned) {
        const std::int64_t current = static_cast<std::int64_t>(result_);
        const std::int64_t value = hwgen::sign_extend(raw, field.width_bits);
        take = op_ == hwgen::AggOp::kMin ? value < current : value > current;
        if (take) result_ = static_cast<std::uint64_t>(value);
        return;
      }
      take = op_ == hwgen::AggOp::kMin ? raw < result_ : raw > result_;
      if (take) result_ = raw;
      return;
    }
  }
}

void SimAggregateUnit::cycle(std::uint64_t /*now*/) {
  if (!in_->can_pop()) return;
  if (op_ == hwgen::AggOp::kNone) {
    // Pass-through wire.
    if (!out_->can_push()) return;
    out_->push(in_->pop());
    return;
  }
  // Aggregating: consume one tuple per cycle; nothing flows downstream.
  const Tuple tuple = in_->pop();
  const analysis::PlanField& field = fields_[field_select_];
  const std::uint64_t raw =
      tuple.extract_u64(field.padded_offset_bits, field.width_bits);
  fold(raw, field);
  ++folded_;
}

void SimAggregateUnit::reset() {
  op_ = hwgen::AggOp::kNone;
  field_select_ = 0;
  result_ = 0;
  folded_ = 0;
}

}  // namespace ndpgen::hwsim
