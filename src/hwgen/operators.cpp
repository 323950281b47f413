#include "hwgen/operators.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace ndpgen::hwgen {

std::int64_t sign_extend(std::uint64_t raw, std::uint32_t width_bits) noexcept {
  if (width_bits == 0 || width_bits >= 64) {
    return static_cast<std::int64_t>(raw);
  }
  const std::uint64_t sign_bit = std::uint64_t{1} << (width_bits - 1);
  const std::uint64_t mask = (std::uint64_t{1} << width_bits) - 1;
  raw &= mask;
  return static_cast<std::int64_t>((raw ^ sign_bit)) -
         static_cast<std::int64_t>(sign_bit);
}

namespace {

double as_float(std::uint64_t raw, std::uint32_t width_bits) noexcept {
  if (width_bits == 32) {
    return static_cast<double>(
        std::bit_cast<float>(static_cast<std::uint32_t>(raw)));
  }
  return std::bit_cast<double>(raw);
}

/// Three-way comparison of operands under the *lhs* interpretation
/// (-1, 0, +1). Widths are taken from the operands.
int compare_words(CompareOperand lhs, CompareOperand rhs) noexcept {
  switch (lhs.interp) {
    case FieldInterp::kUnsigned: {
      if (lhs.raw < rhs.raw) return -1;
      if (lhs.raw > rhs.raw) return 1;
      return 0;
    }
    case FieldInterp::kSigned: {
      const std::int64_t a = sign_extend(lhs.raw, lhs.width_bits);
      const std::int64_t b = sign_extend(rhs.raw, rhs.width_bits);
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
    case FieldInterp::kFloat: {
      const double a = as_float(lhs.raw, lhs.width_bits);
      const double b = as_float(rhs.raw, rhs.width_bits);
      // Hardware comparators treat NaN as incomparable: all magnitude
      // predicates are false, eq is false, ne is true. compare_words
      // encodes that as +2 (NaN marker handled by callers via eq/ne only).
      if (std::isnan(a) || std::isnan(b)) return 2;
      if (a < b) return -1;
      if (a > b) return 1;
      return 0;
    }
  }
  return 0;
}

/// MIN/MAX order as an unsigned key: signed words flip the sign bit,
/// floats map onto the IEEE total order (-inf < ... < -0 < +0 < ... <
/// +inf; NaN never reaches it).
std::uint64_t order_key(FieldInterp interp, std::uint64_t value) noexcept {
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  switch (interp) {
    case FieldInterp::kUnsigned: return value;
    case FieldInterp::kSigned: return value ^ kSign;
    case FieldInterp::kFloat:
      return (value & kSign) != 0 ? ~value : value | kSign;
  }
  return value;
}

std::uint64_t f64_bits(double value) noexcept {
  return std::bit_cast<std::uint64_t>(value);
}

}  // namespace

std::string_view to_string(AggOp op) noexcept {
  switch (op) {
    case AggOp::kNone: return "none";
    case AggOp::kCount: return "count";
    case AggOp::kSum: return "sum";
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
  }
  return "?";
}

AggregateFold::AggregateFold(AggOp op,
                             const analysis::PlanField& field) noexcept
    : op_(op), interp_(field.interp), width_bits_(field.width_bits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr auto kIntMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  if (op == AggOp::kMin) {
    seed_ = interp_ == FieldInterp::kFloat    ? f64_bits(kInf)
            : interp_ == FieldInterp::kSigned ? kIntMax
                                              : ~std::uint64_t{0};
  } else if (op == AggOp::kMax) {
    seed_ = interp_ == FieldInterp::kFloat    ? f64_bits(-kInf)
            : interp_ == FieldInterp::kSigned ? ~kIntMax
                                              : 0;
  }
}

std::uint64_t AggregateFold::widen(std::uint64_t raw) const noexcept {
  if (op_ == AggOp::kCount) return 1;
  switch (interp_) {
    case FieldInterp::kUnsigned: return raw;
    case FieldInterp::kSigned:
      return static_cast<std::uint64_t>(sign_extend(raw, width_bits_));
    case FieldInterp::kFloat: return f64_bits(as_float(raw, width_bits_));
  }
  return raw;
}

std::uint64_t AggregateFold::combine(std::uint64_t acc,
                                     std::uint64_t value) const noexcept {
  switch (op_) {
    case AggOp::kNone: return acc;
    case AggOp::kCount: return acc + value;
    case AggOp::kSum:
      if (interp_ == FieldInterp::kFloat) {
        return f64_bits(std::bit_cast<double>(acc) +
                        std::bit_cast<double>(value));
      }
      return acc + value;  // Two's complement covers signed sums.
    case AggOp::kMin:
    case AggOp::kMax: {
      if (interp_ == FieldInterp::kFloat &&
          std::isnan(std::bit_cast<double>(value))) {
        return acc;
      }
      const std::uint64_t v = order_key(interp_, value);
      const std::uint64_t a = order_key(interp_, acc);
      return (op_ == AggOp::kMin ? v < a : v > a) ? value : acc;
    }
  }
  return acc;
}

OperatorSet OperatorSet::standard() {
  OperatorSet set;
  auto add = [&set](std::string name, std::uint32_t encoding, auto predicate) {
    set.ops_.push_back(CompareOp{std::move(name), encoding, predicate, false});
  };
  add("ne", 0, [](CompareOperand a, CompareOperand b) {
    return compare_words(a, b) != 0;
  });
  add("eq", 1, [](CompareOperand a, CompareOperand b) {
    return compare_words(a, b) == 0;
  });
  add("gt", 2, [](CompareOperand a, CompareOperand b) {
    return compare_words(a, b) == 1;
  });
  add("ge", 3, [](CompareOperand a, CompareOperand b) {
    const int c = compare_words(a, b);
    return c == 0 || c == 1;
  });
  add("lt", 4, [](CompareOperand a, CompareOperand b) {
    return compare_words(a, b) == -1;
  });
  add("le", 5, [](CompareOperand a, CompareOperand b) {
    const int c = compare_words(a, b);
    return c == 0 || c == -1;
  });
  add("nop", 6,
      [](CompareOperand, CompareOperand) { return true; });
  return set;
}

OperatorSet OperatorSet::from_names(const std::vector<std::string>& names) {
  if (names.empty()) return standard();
  const OperatorSet all = standard();
  OperatorSet set;
  for (const auto& name : names) {
    const CompareOp* op = all.find(name);
    if (op == nullptr) {
      ndpgen::raise(ErrorKind::kGeneration,
                    "unknown compare operator '" + name +
                        "' (custom operators must be registered via "
                        "with_custom)");
    }
    if (set.find(name) != nullptr) {
      ndpgen::raise(ErrorKind::kGeneration,
                    "duplicate compare operator '" + name + "'");
    }
    CompareOp copy = *op;
    copy.encoding = static_cast<std::uint32_t>(set.ops_.size());
    set.ops_.push_back(std::move(copy));
  }
  return set;
}

OperatorSet OperatorSet::with_custom(
    std::string name,
    std::function<bool(CompareOperand, CompareOperand)> eval) const {
  if (find(name) != nullptr) {
    ndpgen::raise(ErrorKind::kGeneration,
                  "compare operator '" + name + "' already exists");
  }
  NDPGEN_CHECK_ARG(static_cast<bool>(eval), "custom operator needs an eval fn");
  OperatorSet set = *this;
  CompareOp op;
  op.name = std::move(name);
  op.encoding = static_cast<std::uint32_t>(set.ops_.size());
  op.eval = std::move(eval);
  op.custom = true;
  set.ops_.push_back(std::move(op));
  return set;
}

const CompareOp* OperatorSet::find(std::string_view name) const noexcept {
  for (const auto& op : ops_) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const CompareOp* OperatorSet::find_encoding(std::uint32_t encoding) const
    noexcept {
  for (const auto& op : ops_) {
    if (op.encoding == encoding) return &op;
  }
  return nullptr;
}

std::optional<std::uint32_t> OperatorSet::nop_encoding() const noexcept {
  const CompareOp* op = find("nop");
  if (op == nullptr) return std::nullopt;
  return op->encoding;
}

bool OperatorSet::evaluate(std::uint32_t encoding, CompareOperand lhs,
                           CompareOperand rhs) const {
  const CompareOp* op = find_encoding(encoding);
  if (op == nullptr) {
    ndpgen::raise(ErrorKind::kSimulation,
                  "invalid operator encoding " + std::to_string(encoding));
  }
  return op->eval(lhs, rhs);
}

}  // namespace ndpgen::hwgen
