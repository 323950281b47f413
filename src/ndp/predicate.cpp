#include "ndp/predicate.hpp"

#include <bit>
#include <numeric>

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

RecordFilter::RecordFilter(const analysis::RecordPlan& plan,
                           const hwgen::OperatorSet& operators,
                           std::span<const BoundPredicate> predicates)
    : record_bytes_(plan.input_bytes()) {
  stages_.reserve(predicates.size());
  for (const BoundPredicate& predicate : predicates) {
    NDPGEN_CHECK_ARG(predicate.field_select < plan.fields().size(),
                     "field selector out of range");
    const hwgen::CompareOp* op = operators.find_encoding(predicate.op_encoding);
    if (op == nullptr) {
      ndpgen::raise(ErrorKind::kSimulation,
                    "invalid operator encoding " +
                        std::to_string(predicate.op_encoding));
    }
    stages_.emplace_back(*op, plan.fields()[predicate.field_select],
                         predicate.compare_value);
  }
}

bool RecordFilter::matches(std::span<const std::uint8_t> record) const {
  if (stages_.empty()) return true;
  NDPGEN_CHECK_ARG(record.size() == record_bytes_,
                   "record size does not match the layout");
  // A block of one record.
  std::uint32_t id = 0;
  for (const hwgen::CompareKernel& stage : stages_) {
    if (stage.filter(record.data(), 0, &id, 1, nullptr, &id) == 0) {
      return false;
    }
  }
  return true;
}

void RecordFilter::select(const std::uint8_t* records, std::size_t count,
                          std::size_t stride,
                          std::vector<std::uint32_t>& survivors) const {
  survivors.resize(count);
  std::iota(survivors.begin(), survivors.end(), 0u);
  if (count == 0 || stages_.empty()) return;
  NDPGEN_CHECK_ARG(stride == record_bytes_,
                   "record size does not match the layout");
  for (const hwgen::CompareKernel& stage : stages_) {
    survivors.resize(stage.filter(records, stride, survivors.data(),
                                  survivors.size(), nullptr,
                                  survivors.data()));
  }
}

}  // namespace ndpgen::ndp
