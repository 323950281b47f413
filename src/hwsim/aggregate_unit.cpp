#include "hwsim/aggregate_unit.hpp"

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
  fold_ = hwgen::AggregateFold(op, fields_[field_select]);
  field_select_ = field_select;
}

void SimAggregateUnit::start() {
  result_ = fold_.seed();
  folded_ = 0;
}

void SimAggregateUnit::cycle(std::uint64_t /*now*/) {
  if (!in_->can_pop()) return;
  if (fold_.op() == hwgen::AggOp::kNone) {
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
  fold(raw);
  ++folded_;
}

void SimAggregateUnit::reset() {
  fold_ = {};
  field_select_ = 0;
  result_ = 0;
  folded_ = 0;
}

}  // namespace ndpgen::hwsim
