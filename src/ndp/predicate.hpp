// Host-level predicate descriptions and their binding to PE configuration.
//
// A FilterPredicate names a field by its spec-level path and an operator
// by name; binding resolves these against the analyzed tuple layout and
// the PE's generated operator set into the raw register values
// (field selector, operator encoding, compare word). The same bound form
// drives both the hardware registers and the software evaluation, which
// reads the selected field through the parser's record plan.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "hwgen/operators.hpp"

namespace ndpgen::ndp {

/// User-facing predicate: <field> <op> <value>.
struct FilterPredicate {
  std::string field_path;  ///< e.g. "year" or "pos.elem_0".
  std::string op;          ///< Operator name from the PE's set ("lt"...).
  std::uint64_t value = 0; ///< Raw compare bits (see encode_* helpers).
};

/// Register-level form.
struct BoundPredicate {
  std::uint32_t field_select = 0;
  std::uint32_t op_encoding = 0;
  std::uint64_t compare_value = 0;
};

/// Raw-bits encoding helpers for float fields.
[[nodiscard]] std::uint64_t encode_f32(float value) noexcept;
[[nodiscard]] std::uint64_t encode_f64(double value) noexcept;

/// Resolves a predicate against a layout + operator set.
/// Throws Error{kInvalidArg} for unknown fields/operators or non-relevant
/// (string postfix) fields.
[[nodiscard]] BoundPredicate bind_predicate(
    const analysis::TupleLayout& layout, const hwgen::OperatorSet& operators,
    const FilterPredicate& predicate);

/// Binds a conjunction onto `stages` chained filter stages. Unused stages
/// are bound to nop. Throws if more predicates than stages.
[[nodiscard]] std::vector<BoundPredicate> bind_conjunction(
    const analysis::TupleLayout& layout, const hwgen::OperatorSet& operators,
    const std::vector<FilterPredicate>& predicates, std::uint32_t stages);

/// Software filter chain: true when the packed input-layout `record`
/// passes every predicate of the conjunction. Throws Error{kInvalidArg}
/// when `record` is not an input-layout record.
[[nodiscard]] bool matches(const analysis::RecordPlan& plan,
                           const hwgen::OperatorSet& operators,
                           std::span<const std::uint8_t> record,
                           std::span<const BoundPredicate> predicates);

}  // namespace ndpgen::ndp
