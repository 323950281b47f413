#include "hwsim/aggregate_unit.hpp"

#include <bit>
#include <limits>

#include "hwgen/operators.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

SimAggregateUnit::SimAggregateUnit(std::string name,
                                   const analysis::TupleLayout& layout,
                                   Stream<Tuple>* in, Stream<Tuple>* out)
    : Module(std::move(name)), in_(in), out_(out) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "aggregate unit needs both streams");
  for (const std::size_t index : layout.relevant_indices()) {
    const auto& field = layout.fields[index];
    fields_.push_back(FieldInfo{field.padded_offset_bits,
                                field.storage_width_bits,
                                spec::is_signed(field.primitive),
                                spec::is_float(field.primitive)});
  }
}

void SimAggregateUnit::configure(hwgen::AggOp op, std::uint32_t field_select) {
  NDPGEN_CHECK_ARG(field_select < fields_.size(),
                   "aggregate field selector out of range");
  op_ = op;
  field_select_ = field_select;
}

void SimAggregateUnit::start() {
  folded_ = 0;
  switch (op_) {
    case hwgen::AggOp::kMin:
      result_ = ~std::uint64_t{0};
      if (fields_[field_select_].is_float) {
        result_ = std::bit_cast<std::uint64_t>(
            std::numeric_limits<double>::infinity());
      } else if (fields_[field_select_].is_signed) {
        result_ = static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::max());
      }
      break;
    case hwgen::AggOp::kMax:
      result_ = 0;
      if (fields_[field_select_].is_float) {
        result_ = std::bit_cast<std::uint64_t>(
            -std::numeric_limits<double>::infinity());
      } else if (fields_[field_select_].is_signed) {
        result_ = static_cast<std::uint64_t>(
            std::numeric_limits<std::int64_t>::min());
      }
      break;
    default:
      result_ = 0;
      break;
  }
}

void SimAggregateUnit::fold(std::uint64_t raw, const FieldInfo& field) {
  switch (op_) {
    case hwgen::AggOp::kNone:
      return;
    case hwgen::AggOp::kCount:
      ++result_;
      return;
    case hwgen::AggOp::kSum:
      if (field.is_float) {
        const double value =
            field.true_width == 32
                ? static_cast<double>(std::bit_cast<float>(
                      static_cast<std::uint32_t>(raw)))
                : std::bit_cast<double>(raw);
        result_ = std::bit_cast<std::uint64_t>(
            std::bit_cast<double>(result_) + value);
      } else if (field.is_signed) {
        result_ = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(result_) +
            hwgen::sign_extend(raw, field.true_width));
      } else {
        result_ += raw;
      }
      return;
    case hwgen::AggOp::kMin:
    case hwgen::AggOp::kMax: {
      bool take;
      if (field.is_float) {
        const double current = std::bit_cast<double>(result_);
        const double value =
            field.true_width == 32
                ? static_cast<double>(std::bit_cast<float>(
                      static_cast<std::uint32_t>(raw)))
                : std::bit_cast<double>(raw);
        take = op_ == hwgen::AggOp::kMin ? value < current : value > current;
        if (take) result_ = std::bit_cast<std::uint64_t>(value);
        return;
      }
      if (field.is_signed) {
        const std::int64_t current = static_cast<std::int64_t>(result_);
        const std::int64_t value = hwgen::sign_extend(raw, field.true_width);
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
  const FieldInfo& field = fields_[field_select_];
  const std::uint64_t raw = tuple.extract_u64(
      field.padded_offset, std::min<std::uint32_t>(field.true_width, 64));
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
