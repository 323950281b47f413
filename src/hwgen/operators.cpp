#include "hwgen/operators.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "support/bytes.hpp"
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

template <CompareKind K, class Value>
bool holds(Value a, Value b) noexcept {
  if constexpr (K == CompareKind::kNe) return a != b;
  if constexpr (K == CompareKind::kEq) return a == b;
  if constexpr (K == CompareKind::kGt) return a > b;
  if constexpr (K == CompareKind::kGe) return a >= b;
  if constexpr (K == CompareKind::kLt) return a < b;
  if constexpr (K == CompareKind::kLe) return a <= b;
  return true;  // nop
}

template <class Value>
bool holds(CompareKind kind, Value a, Value b) noexcept {
  switch (kind) {
    case CompareKind::kNe: return holds<CompareKind::kNe>(a, b);
    case CompareKind::kEq: return holds<CompareKind::kEq>(a, b);
    case CompareKind::kGt: return holds<CompareKind::kGt>(a, b);
    case CompareKind::kGe: return holds<CompareKind::kGe>(a, b);
    case CompareKind::kLt: return holds<CompareKind::kLt>(a, b);
    case CompareKind::kLe: return holds<CompareKind::kLe>(a, b);
    case CompareKind::kNop:
    case CompareKind::kCustom: break;
  }
  return true;
}

/// How a kernel reads a field of one (interpretation, width): the stored
/// word, and the value compare() compares, from a stored word or from a
/// raw (zero-extended) one.
template <class Word>
struct UnsignedLane {
  using Stored = Word;
  static std::uint64_t from_stored(Word word) noexcept { return word; }
  static std::uint64_t from_raw(std::uint64_t raw) noexcept { return raw; }
};

template <class Word>
struct SignedLane {
  using Stored = Word;
  static std::int64_t from_stored(Word word) noexcept {
    return static_cast<std::make_signed_t<Word>>(word);
  }
  static std::int64_t from_raw(std::uint64_t raw) noexcept {
    return sign_extend(raw, 8 * sizeof(Word));
  }
};

template <class Float, class Word>
struct FloatLane {
  using Stored = Word;
  static Float from_stored(Word word) noexcept {
    return std::bit_cast<Float>(word);
  }
  static Float from_raw(std::uint64_t raw) noexcept {
    return std::bit_cast<Float>(static_cast<Word>(raw));
  }
};

/// The standard operators by name, in encoding order.
constexpr std::pair<std::string_view, CompareKind> kStandardOps[] = {
    {"ne", CompareKind::kNe}, {"eq", CompareKind::kEq},
    {"gt", CompareKind::kGt}, {"ge", CompareKind::kGe},
    {"lt", CompareKind::kLt}, {"le", CompareKind::kLe},
    {"nop", CompareKind::kNop},
};

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

bool compare(CompareKind kind, FieldInterp interp, std::uint32_t width_bits,
             std::uint64_t lhs, std::uint64_t rhs) {
  NDPGEN_CHECK(kind != CompareKind::kCustom,
               "a custom operator has no standard semantics");
  switch (interp) {
    case FieldInterp::kUnsigned: return holds(kind, lhs, rhs);
    case FieldInterp::kSigned:
      return holds(kind, sign_extend(lhs, width_bits),
                   sign_extend(rhs, width_bits));
    case FieldInterp::kFloat:
      // C++'s IEEE compares are the hardware's: every ordered predicate
      // and eq are false on NaN, ne is true.
      return holds(kind, as_float(lhs, width_bits), as_float(rhs, width_bits));
  }
  return false;
}

struct CompareKernel::Kernels {
  template <CompareKind K, class Lane>
  static bool test(const CompareKernel& k, std::uint64_t raw) {
    return holds<K>(Lane::from_raw(raw), Lane::from_raw(k.rhs_));
  }

  /// One pass over the ids: `verdict` gets each id's field and nothing
  /// branches on its answer.
  template <bool kPass, class Verdict>
  static std::size_t walk(const std::uint8_t* fields, std::size_t stride,
                          const std::uint32_t* ids, std::size_t count,
                          std::uint8_t* pass, std::uint32_t* survivors,
                          Verdict verdict) {
    std::size_t kept = 0;
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t id = ids[i];
      const bool ok = verdict(fields + std::size_t{id} * stride);
      if constexpr (kPass) pass[i] = ok ? 1 : 0;
      survivors[kept] = id;
      kept += ok ? 1 : 0;
    }
    return kept;
  }

  /// A fixed-width load and a compare against the compare word, converted
  /// once per block.
  template <CompareKind K, class Lane, bool kPass>
  static std::size_t filter(const CompareKernel& k,
                            const std::uint8_t* records, std::size_t stride,
                            const std::uint32_t* ids, std::size_t count,
                            std::uint8_t* pass, std::uint32_t* survivors) {
    const auto rhs = Lane::from_raw(k.rhs_);
    return walk<kPass>(records + k.offset_, stride, ids, count, pass,
                       survivors, [rhs](const std::uint8_t* field) {
                         return holds<K>(
                             Lane::from_stored(
                                 static_cast<typename Lane::Stored>(
                                     support::load_le<sizeof(
                                         typename Lane::Stored)>(field))),
                             rhs);
                       });
  }

  static bool test_nop(const CompareKernel&, std::uint64_t) { return true; }

  template <bool kPass>
  static std::size_t filter_nop(const CompareKernel&, const std::uint8_t*,
                                std::size_t, const std::uint32_t* ids,
                                std::size_t count, std::uint8_t* pass,
                                std::uint32_t* survivors) {
    if constexpr (kPass) std::memset(pass, 1, count);
    if (survivors != ids) std::memmove(survivors, ids, count * sizeof(*ids));
    return count;
  }

  /// Custom operators, and standard kinds on a width no lane covers: one
  /// scalar evaluation per tuple.
  static bool test_scalar(const CompareKernel& k, std::uint64_t raw) {
    if (k.op_->kind != CompareKind::kCustom) {
      return compare(k.op_->kind, k.interp_, k.width_bits_, raw, k.rhs_);
    }
    return k.op_->eval(CompareOperand{raw, k.interp_, k.width_bits_},
                       CompareOperand{k.rhs_, k.interp_, k.width_bits_});
  }

  template <bool kPass>
  static std::size_t filter_scalar(const CompareKernel& k,
                                   const std::uint8_t* records,
                                   std::size_t stride,
                                   const std::uint32_t* ids,
                                   std::size_t count, std::uint8_t* pass,
                                   std::uint32_t* survivors) {
    return walk<kPass>(records + k.offset_, stride, ids, count, pass,
                       survivors, [&k](const std::uint8_t* field) {
                         return test_scalar(
                             k, support::load_le(field, k.width_bits_ / 8));
                       });
  }

  template <CompareKind K, class Lane>
  static void bind_lane(CompareKernel& k) {
    k.test_ = &test<K, Lane>;
    k.filter_ = &filter<K, Lane, true>;
    k.select_ = &filter<K, Lane, false>;
  }

  // A width no lane covers keeps the constructor's scalar kernel.
  template <CompareKind K>
  static void bind_kind(CompareKernel& k) {
    switch (k.interp_) {
      case FieldInterp::kUnsigned:
        switch (k.width_bits_) {
          case 8: return bind_lane<K, UnsignedLane<std::uint8_t>>(k);
          case 16: return bind_lane<K, UnsignedLane<std::uint16_t>>(k);
          case 32: return bind_lane<K, UnsignedLane<std::uint32_t>>(k);
          case 64: return bind_lane<K, UnsignedLane<std::uint64_t>>(k);
        }
        break;
      case FieldInterp::kSigned:
        switch (k.width_bits_) {
          case 8: return bind_lane<K, SignedLane<std::uint8_t>>(k);
          case 16: return bind_lane<K, SignedLane<std::uint16_t>>(k);
          case 32: return bind_lane<K, SignedLane<std::uint32_t>>(k);
          case 64: return bind_lane<K, SignedLane<std::uint64_t>>(k);
        }
        break;
      case FieldInterp::kFloat:
        switch (k.width_bits_) {
          case 32: return bind_lane<K, FloatLane<float, std::uint32_t>>(k);
          case 64: return bind_lane<K, FloatLane<double, std::uint64_t>>(k);
        }
        break;
    }
  }

  static void bind(CompareKernel& k) {
    switch (k.op_->kind) {
      case CompareKind::kNe: return bind_kind<CompareKind::kNe>(k);
      case CompareKind::kEq: return bind_kind<CompareKind::kEq>(k);
      case CompareKind::kGt: return bind_kind<CompareKind::kGt>(k);
      case CompareKind::kGe: return bind_kind<CompareKind::kGe>(k);
      case CompareKind::kLt: return bind_kind<CompareKind::kLt>(k);
      case CompareKind::kLe: return bind_kind<CompareKind::kLe>(k);
      case CompareKind::kNop:
        k.test_ = &test_nop;
        k.filter_ = &filter_nop<true>;
        k.select_ = &filter_nop<false>;
        return;
      case CompareKind::kCustom: return;  // The scalar kernel.
    }
  }
};

CompareKernel::CompareKernel(const CompareOp& op,
                             const analysis::PlanField& field,
                             std::uint64_t rhs)
    : op_(&op),
      interp_(field.interp),
      width_bits_(field.width_bits),
      offset_(field.storage_offset_bits / 8),
      rhs_(rhs),
      test_(&Kernels::test_scalar),
      filter_(&Kernels::filter_scalar<true>),
      select_(&Kernels::filter_scalar<false>) {
  Kernels::bind(*this);
}

OperatorSet OperatorSet::standard() {
  OperatorSet set;
  for (const auto& [name, kind] : kStandardOps) {
    set.ops_.push_back(CompareOp{std::string(name),
                                 static_cast<std::uint32_t>(set.ops_.size()),
                                 kind, {}});
  }
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
  if (op->kind == CompareKind::kCustom) return op->eval(lhs, rhs);
  return compare(op->kind, lhs.interp, lhs.width_bits, lhs.raw, rhs.raw);
}

}  // namespace ndpgen::hwgen
