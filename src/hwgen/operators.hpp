// Compare-operator sets for the Filtering Unit.
//
// Paper §IV-B: "Each operation is represented using a function mapping two
// data-words to a boolean value ... Using a user-defined set of operations
// or the pre-defined standard set (!=, ==, >, >=, <, <=, nop), the Compare
// Unit is generated." The set is extensible: custom operators carry their
// own evaluation function (standing in for the user-supplied
// Verilog/VHDL the Chisel flow would interface with).
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

/// A compare operation: name + hardware encoding + evaluation semantics.
struct CompareOp {
  std::string name;        ///< e.g. "eq", "lt", "nop".
  std::uint32_t encoding;  ///< Value written to the FILTER_OP register.
  std::function<bool(CompareOperand lhs, CompareOperand rhs)> eval;
  bool custom = false;     ///< True for user-registered operators.
};

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

  /// Evaluates encoding `encoding` on (lhs, rhs); throws on bad encoding.
  [[nodiscard]] bool evaluate(std::uint32_t encoding, CompareOperand lhs,
                              CompareOperand rhs) const;

 private:
  std::vector<CompareOp> ops_;
};

/// Sign-extends `raw` from `width_bits` to 64 bits.
[[nodiscard]] std::int64_t sign_extend(std::uint64_t raw,
                                       std::uint32_t width_bits) noexcept;

/// Three-way comparison of operands under the *lhs* interpretation
/// (-1, 0, +1). Widths are taken from the operands.
[[nodiscard]] int compare_operands(CompareOperand lhs,
                                   CompareOperand rhs) noexcept;

}  // namespace ndpgen::hwgen
