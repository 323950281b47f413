// One record plan per parser: how software reads and projects stored
// tuples. Contextual analysis fixes every field's storage and padded
// layout and the input -> output mapping (paper §IV-B); RecordPlan
// compiles them once into `extract` (one relevant field, selected in mux
// order) and `project` (the transform unit's storage -> padded -> wires
// -> storage plane as whole-byte copies). The exact-mode datapath
// (padded BitVector tuples through SimTransformUnit wires) does not use
// it: it stays the independent reference the plan is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/layout.hpp"
#include "analysis/mapping.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::analysis {

/// How a comparator or accumulator reads a field's raw bits.
enum class FieldInterp : std::uint8_t { kUnsigned, kSigned, kFloat };

/// The one derivation of a primitive's interpretation.
[[nodiscard]] FieldInterp field_interp(spec::PrimitiveKind primitive) noexcept;

/// One relevant field as the filter and aggregate muxes select it.
struct PlanField {
  std::uint32_t storage_offset_bits = 0;
  std::uint32_t width_bits = 0;          ///< True (storage) width, <= 64.
  std::uint32_t padded_offset_bits = 0;  ///< In the PE's processing vector.
  FieldInterp interp = FieldInterp::kUnsigned;
};

class RecordPlan {
 public:
  RecordPlan() = default;

  /// The parser's plan: the relevant fields of `input` in mux order, and
  /// `mapping` composed into storage -> output copy segments. Every field
  /// of the spec language is a whole number of bytes, so are the copies.
  RecordPlan(const TupleLayout& input, const TupleLayout& output,
             const ResolvedMapping& mapping);

  /// A plan over the named relevant fields of `layout`, in the given
  /// order, whose projection packs them back to back (the query layer's
  /// row decode and column repack). Throws Error{kInvalidArg} for a name
  /// that is not a filterable field of `layout`.
  [[nodiscard]] static RecordPlan select(const TupleLayout& layout,
                                         const std::vector<std::string>& names);

  [[nodiscard]] const std::vector<PlanField>& fields() const noexcept {
    return fields_;
  }
  [[nodiscard]] std::uint32_t input_bytes() const noexcept {
    return input_bytes_;
  }
  [[nodiscard]] std::uint32_t output_bytes() const noexcept {
    return output_bytes_;
  }

  /// Raw bits of field `select` of `record`, zero-extended. Throws
  /// Error{kInvalidArg} when `select` is out of range or `record` is not
  /// input_bytes() long.
  [[nodiscard]] std::uint64_t extract(std::span<const std::uint8_t> record,
                                      std::uint32_t select) const {
    NDPGEN_CHECK_ARG(select < fields_.size(), "field selector out of range");
    NDPGEN_CHECK_ARG(record.size() == input_bytes_,
                     "record size does not match the layout");
    const PlanField& field = fields_[select];
    return support::load_le(record.data() + field.storage_offset_bits / 8,
                            field.width_bits / 8);
  }

  /// Writes `record`'s output-layout image into `out`. Throws
  /// Error{kInvalidArg} unless `record` is input_bytes() and `out`
  /// output_bytes() long.
  void project(std::span<const std::uint8_t> record,
               std::span<std::uint8_t> out) const;
  [[nodiscard]] std::vector<std::uint8_t> project(
      std::span<const std::uint8_t> record) const;

 private:
  /// `bytes` output bytes at `dst` copied from input bytes at `src`.
  struct Segment {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t bytes;
  };

  void add_field(const FieldLayout& field);
  void add_copy(std::uint32_t src_bits, std::uint32_t dst_bits,
                std::uint32_t width_bits);

  std::vector<PlanField> fields_;
  std::vector<Segment> segments_;  ///< Cover the output, in its order.
  std::uint32_t input_bytes_ = 0;
  std::uint32_t output_bytes_ = 0;
};

}  // namespace ndpgen::analysis
