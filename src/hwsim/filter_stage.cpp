#include "hwsim/filter_stage.hpp"

#include "support/error.hpp"

namespace ndpgen::hwsim {

SimFilterStage::SimFilterStage(std::string name,
                               const analysis::RecordPlan& plan,
                               const hwgen::OperatorSet& operators,
                               Stream<Tuple>* in, Stream<Tuple>* out)
    : Module(std::move(name)),
      operators_(operators),
      in_(in),
      out_(out),
      fields_(plan.fields()) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "filter stage needs both streams");
  NDPGEN_CHECK_ARG(!fields_.empty(), "tuple has no filterable fields");
  bind(0, 0, 0);
}

void SimFilterStage::configure(std::uint32_t field_select,
                               std::uint32_t operator_select,
                               std::uint64_t compare_value) {
  NDPGEN_CHECK_ARG(field_select < fields_.size(),
                   "field selector out of range");
  NDPGEN_CHECK_ARG(operators_.find_encoding(operator_select) != nullptr,
                   "operator selector out of range");
  bind(field_select, operator_select, compare_value);
}

void SimFilterStage::bind(std::uint32_t field_select,
                          std::uint32_t operator_select,
                          std::uint64_t compare_value) {
  field_select_ = field_select;
  operator_select_ = operator_select;
  const hwgen::CompareOp* op = operators_.find_encoding(operator_select);
  if (op == nullptr) {
    kernel_.reset();
  } else {
    kernel_.emplace(*op, fields_[field_select], compare_value);
  }
}

void SimFilterStage::start() {
  pass_count_ = 0;
  drop_count_ = 0;
  stall_in_count_ = 0;
  stall_out_count_ = 0;
}

void SimFilterStage::cycle(std::uint64_t /*now*/) {
  // One tuple per cycle: the elastic pipeline property the paper relies on
  // ("the filtering stages are able to process a tuple per cycle").
  // Distinguish the two ready/valid stall causes: no valid input versus a
  // backpressured output FIFO.
  if (!in_->can_pop()) {
    ++stall_in_count_;
    return;
  }
  if (!out_->can_push()) {
    ++stall_out_count_;
    return;
  }
  Tuple tuple = in_->pop();
  const analysis::PlanField& field = fields_[field_select_];
  const std::uint64_t element =
      tuple.extract_u64(field.padded_offset_bits, field.width_bits);
  if (!kernel_) {
    ndpgen::raise(ErrorKind::kSimulation,
                  "invalid operator encoding " +
                      std::to_string(operator_select_));
  }
  if (kernel_->test(element)) {
    out_->push(std::move(tuple));
    ++pass_count_;
  } else {
    ++drop_count_;
  }
}

void SimFilterStage::reset() {
  pass_count_ = 0;
  drop_count_ = 0;
  stall_in_count_ = 0;
  stall_out_count_ = 0;
  bind(0, 0, 0);
}

}  // namespace ndpgen::hwsim
