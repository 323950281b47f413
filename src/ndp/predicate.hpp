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

/// Software filter chain: a conjunction bound once, each predicate to its
/// hwgen::CompareKernel over the parser's record plan, like the PE's
/// chained stages. Throws Error{kInvalidArg} for a field selector the plan
/// lacks and Error{kSimulation} for an encoding the set lacks. The plan and
/// the operator set must outlive the filter.
class RecordFilter {
 public:
  RecordFilter() = default;  ///< No predicates: every record passes.
  RecordFilter(const analysis::RecordPlan& plan,
               const hwgen::OperatorSet& operators,
               std::span<const BoundPredicate> predicates);

  [[nodiscard]] std::size_t size() const noexcept { return stages_.size(); }

  /// True when the packed input-layout `record` passes every predicate.
  /// Throws Error{kInvalidArg} when `record` is not an input-layout
  /// record.
  [[nodiscard]] bool matches(std::span<const std::uint8_t> record) const;

  /// The indices, in order, of the passing records among the `count`
  /// input-layout records `stride` bytes apart from `records`; each stage
  /// walks the previous one's survivors. Throws Error{kInvalidArg} when
  /// `stride` is not the input record size.
  void select(const std::uint8_t* records, std::size_t count,
              std::size_t stride, std::vector<std::uint32_t>& survivors) const;

 private:
  std::uint32_t record_bytes_ = 0;
  std::vector<hwgen::CompareKernel> stages_;
};

}  // namespace ndpgen::ndp
