// Compare-operator sets for the Filtering Unit.
//
// Paper §IV-B: "Each operation is represented using a function mapping two
// data-words to a boolean value ... Using a user-defined set of operations
// or the pre-defined standard set (!=, ==, >, >=, <, <=, nop), the Compare
// Unit is generated." The set is extensible: custom operators carry their
// own evaluation function (standing in for the user-supplied
// Verilog/VHDL the Chisel flow would interface with). The aggregate
// fold of the Aggregation Unit (extension) lives here too, so every
// software path compares and folds exactly as the PE does.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/record_plan.hpp"

namespace ndpgen::hwgen {

/// How a comparator interprets its operand words (derived per field by
/// analysis::field_interp).
using analysis::FieldInterp;

/// Operand view handed to compare functions: the raw word plus its
/// interpretation and true (unpadded) width in bits.
struct CompareOperand {
  std::uint64_t raw = 0;
  FieldInterp interp = FieldInterp::kUnsigned;
  std::uint32_t width_bits = 32;
};

/// What a compare operation computes: one of the standard set's six
/// compares or nop (always true), whose one semantics is compare(), or a
/// user-registered operator that carries its own function.
enum class CompareKind : std::uint8_t {
  kNe, kEq, kGt, kGe, kLt, kLe, kNop, kCustom,
};

/// A compare operation: name + hardware encoding + kind. The kind lives on
/// the op because OperatorSet::from_names renumbers the encodings.
struct CompareOp {
  std::string name;        ///< e.g. "eq", "lt", "nop".
  std::uint32_t encoding;  ///< Value written to the FILTER_OP register.
  CompareKind kind = CompareKind::kCustom;
  /// A custom operator's semantics; empty for the standard kinds.
  std::function<bool(CompareOperand lhs, CompareOperand rhs)> eval;
};

/// The standard semantics of `kind` (not kCustom) on two raw words of a
/// `width_bits`-wide field read as `interp`:
///  * unsigned: the 64-bit words compare as they are (rhs bits above the
///    width count);
///  * signed: both sign-extend from the width (bits above it are ignored);
///  * float: IEEE singles at width 32 (bits above it are ignored), IEEE
///    doubles of the whole word at any other width; NaN is unordered, so
///    only ne holds, and -0 equals +0.
/// nop is always true. Throws Error{kInternal} for kCustom.
[[nodiscard]] bool compare(CompareKind kind, FieldInterp interp,
                           std::uint32_t width_bits, std::uint64_t lhs,
                           std::uint64_t rhs);

/// Ordered, immutable set of compare operations for one PE.
class OperatorSet {
 public:
  /// The pre-defined standard set: ne(0) eq(1) gt(2) ge(3) lt(4) le(5)
  /// nop(6). nop always passes (used to disable a chained stage).
  [[nodiscard]] static OperatorSet standard();

  /// Builds a set from operator names, resolving each against the standard
  /// set. Throws Error{kGeneration} on unknown names or duplicates.
  [[nodiscard]] static OperatorSet from_names(
      const std::vector<std::string>& names);

  /// Returns a copy of this set with `op` appended (encoding assigned
  /// automatically). Throws on duplicate name.
  [[nodiscard]] OperatorSet with_custom(
      std::string name,
      std::function<bool(CompareOperand, CompareOperand)> eval) const;

  [[nodiscard]] const std::vector<CompareOp>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }

  [[nodiscard]] const CompareOp* find(std::string_view name) const noexcept;
  [[nodiscard]] const CompareOp* find_encoding(std::uint32_t encoding) const
      noexcept;

  /// Encoding of "nop" if present (stages are disabled by selecting it).
  [[nodiscard]] std::optional<std::uint32_t> nop_encoding() const noexcept;

  /// Evaluates encoding `encoding` on (lhs, rhs) under lhs's
  /// interpretation and width; throws Error{kSimulation} on a bad
  /// encoding. Loops bind a CompareKernel once instead.
  [[nodiscard]] bool evaluate(std::uint32_t encoding, CompareOperand lhs,
                              CompareOperand rhs) const;

 private:
  std::vector<CompareOp> ops_;
};

/// One compare stage bound once: its operator, its field's
/// interpretation, width and storage byte offset, and its compare word.
/// Binding picks a kernel specialised per kind x interpretation x width,
/// so a standard compare costs no std::function call and no switch on the
/// interpretation per tuple; a custom operator still calls its function.
/// Every kernel answers as compare() does. The op must outlive the kernel.
class CompareKernel {
 public:
  CompareKernel(const CompareOp& op, const analysis::PlanField& field,
                std::uint64_t rhs);

  /// The verdict on one raw (zero-extended) field word.
  [[nodiscard]] bool test(std::uint64_t raw) const {
    return test_(*this, raw);
  }

  /// Block form over records `stride` bytes apart from `records`: tests
  /// the field of records ids[0..count), writes the i-th verdict to
  /// pass[i] unless `pass` is null, and the passing ids, in order, to
  /// `survivors` (which may be `ids`). Returns the number of survivors.
  std::size_t filter(const std::uint8_t* records, std::size_t stride,
                     const std::uint32_t* ids, std::size_t count,
                     std::uint8_t* pass, std::uint32_t* survivors) const {
    return (pass != nullptr ? filter_ : select_)(*this, records, stride, ids,
                                                 count, pass, survivors);
  }

 private:
  struct Kernels;  ///< The specialisations (operators.cpp).
  using TestFn = bool (*)(const CompareKernel&, std::uint64_t);
  using BlockFn = std::size_t (*)(const CompareKernel&, const std::uint8_t*,
                                  std::size_t, const std::uint32_t*,
                                  std::size_t, std::uint8_t*,
                                  std::uint32_t*);

  const CompareOp* op_;
  FieldInterp interp_;
  std::uint32_t width_bits_;
  std::uint32_t offset_;  ///< Field's storage offset in bytes.
  std::uint64_t rhs_;
  TestFn test_;
  BlockFn filter_;  ///< Writes the pass vector.
  BlockFn select_;  ///< Survivors only.
};

/// Aggregation operations of the optional aggregate unit. kNone makes the
/// unit a pass-through wire (tuples continue to transform/store).
enum class AggOp : std::uint8_t {
  kNone = 0,
  kCount = 1,
  kSum = 2,
  kMin = 3,
  kMax = 4,
};

[[nodiscard]] std::string_view to_string(AggOp op) noexcept;

/// The one COUNT/SUM/MIN/MAX semantics of one (op, field interpretation,
/// width), shared by the simulated aggregate unit, the executor's block,
/// shard and software folds and the query tail. Every value it takes or
/// returns is in the 64-bit ACCUMULATOR encoding: unsigned words for
/// counts and unsigned fields, int64 for signed fields, f64 bits for
/// float fields.
///  * seed() is combine's identity and the result of an empty fold: 0 for
///    COUNT and SUM; for MIN/MAX ~0/0 (unsigned), INT64_MAX/INT64_MIN
///    (signed), +inf/-inf (float).
///  * MIN/MAX skip NaN (it never orders better) and order -0 below +0.
/// So every fold but a float SUM is associative and commutative: tuple by
/// tuple, per block, per shard, in any order, the result bits agree.
class AggregateFold {
 public:
  AggregateFold() = default;  ///< kNone: combine keeps the accumulator.
  AggregateFold(AggOp op, const analysis::PlanField& field) noexcept;

  [[nodiscard]] AggOp op() const noexcept { return op_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// A tuple's raw field word (zero-extended, `field.width_bits` wide) in
  /// the accumulator encoding; 1 for COUNT.
  [[nodiscard]] std::uint64_t widen(std::uint64_t raw) const noexcept;
  /// One fold step: `value` is a widened tuple, a block result or another
  /// accumulator.
  [[nodiscard]] std::uint64_t combine(std::uint64_t acc,
                                      std::uint64_t value) const noexcept;
  /// The result's interpretation: unsigned for COUNT, else the field's.
  [[nodiscard]] FieldInterp result_interp() const noexcept {
    return op_ == AggOp::kCount ? FieldInterp::kUnsigned : interp_;
  }

 private:
  AggOp op_ = AggOp::kNone;
  FieldInterp interp_ = FieldInterp::kUnsigned;
  std::uint32_t width_bits_ = 64;
  std::uint64_t seed_ = 0;
};

/// Sign-extends `raw` from `width_bits` to 64 bits.
[[nodiscard]] std::int64_t sign_extend(std::uint64_t raw,
                                       std::uint32_t width_bits) noexcept;

}  // namespace ndpgen::hwgen
