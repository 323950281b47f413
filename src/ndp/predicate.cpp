#include "ndp/predicate.hpp"

#include <bit>

#include "support/error.hpp"

namespace ndpgen::ndp {

std::uint64_t encode_f32(float value) noexcept {
  return std::bit_cast<std::uint32_t>(value);
}

std::uint64_t encode_f64(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}

BoundPredicate bind_predicate(const analysis::TupleLayout& layout,
                              const hwgen::OperatorSet& operators,
                              const FilterPredicate& predicate) {
  const auto relevant = layout.relevant_indices();
  std::uint32_t selector = 0;
  bool found = false;
  for (std::size_t i = 0; i < relevant.size(); ++i) {
    if (layout.fields[relevant[i]].path == predicate.field_path) {
      selector = static_cast<std::uint32_t>(i);
      found = true;
      break;
    }
  }
  if (!found) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  "predicate field '" + predicate.field_path +
                      "' is not a filterable field of tuple '" +
                      layout.type_name + "'");
  }
  const hwgen::CompareOp* op = operators.find(predicate.op);
  if (op == nullptr) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  "operator '" + predicate.op +
                      "' is not in this PE's operator set");
  }
  return BoundPredicate{selector, op->encoding, predicate.value};
}

std::vector<BoundPredicate> bind_conjunction(
    const analysis::TupleLayout& layout, const hwgen::OperatorSet& operators,
    const std::vector<FilterPredicate>& predicates, std::uint32_t stages) {
  if (predicates.size() > stages) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  "conjunction has " + std::to_string(predicates.size()) +
                      " predicates but the PE provides only " +
                      std::to_string(stages) + " filter stage(s)");
  }
  const auto nop = operators.nop_encoding();
  if (!nop.has_value() && predicates.size() < stages) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  "operator set lacks 'nop'; cannot disable unused stages");
  }
  std::vector<BoundPredicate> bound;
  bound.reserve(stages);
  for (const auto& predicate : predicates) {
    bound.push_back(bind_predicate(layout, operators, predicate));
  }
  while (bound.size() < stages) {
    bound.push_back(BoundPredicate{0, *nop, 0});
  }
  return bound;
}

bool matches(const analysis::RecordPlan& plan,
             const hwgen::OperatorSet& operators,
             std::span<const std::uint8_t> record,
             std::span<const BoundPredicate> predicates) {
  for (const BoundPredicate& predicate : predicates) {
    const std::uint64_t raw = plan.extract(record, predicate.field_select);
    const analysis::PlanField& field = plan.fields()[predicate.field_select];
    const hwgen::CompareOperand lhs{raw, field.interp, field.width_bits};
    const hwgen::CompareOperand rhs{predicate.compare_value, field.interp,
                                    field.width_bits};
    if (!operators.evaluate(predicate.op_encoding, lhs, rhs)) return false;
  }
  return true;
}

}  // namespace ndpgen::ndp
