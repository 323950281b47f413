#include "analysis/record_plan.hpp"

#include <algorithm>

namespace ndpgen::analysis {

FieldInterp field_interp(spec::PrimitiveKind primitive) noexcept {
  if (spec::is_float(primitive)) return FieldInterp::kFloat;
  if (spec::is_signed(primitive)) return FieldInterp::kSigned;
  return FieldInterp::kUnsigned;
}

RecordPlan::RecordPlan(const TupleLayout& input, const TupleLayout& output,
                       const ResolvedMapping& mapping)
    : input_bytes_(input.storage_bytes()),
      output_bytes_(output.storage_bytes()) {
  for (const auto& field : input.fields) {
    if (field.relevant) add_field(field);
  }
  for (const auto& wire : mapping.wires) {
    const auto& dst = output.fields[wire.output_field];
    add_copy(input.fields[wire.input_field].storage_offset_bits,
             dst.storage_offset_bits, dst.storage_width_bits);
  }
}

RecordPlan RecordPlan::select(const TupleLayout& layout,
                              const std::vector<std::string>& names) {
  RecordPlan plan;
  plan.input_bytes_ = layout.storage_bytes();
  std::uint32_t packed_bits = 0;
  for (const auto& name : names) {
    const auto index = layout.find_field(name);
    NDPGEN_CHECK_ARG(index.has_value() && layout.fields[*index].relevant,
                     "'" + name + "' is not a filterable field of tuple '" +
                         layout.type_name + "'");
    const FieldLayout& field = layout.fields[*index];
    plan.add_field(field);
    plan.add_copy(field.storage_offset_bits, packed_bits,
                  field.storage_width_bits);
    packed_bits += field.storage_width_bits;
  }
  plan.output_bytes_ = packed_bits / 8;
  return plan;
}

void RecordPlan::add_field(const FieldLayout& field) {
  NDPGEN_CHECK(field.storage_offset_bits % 8 == 0 &&
                   field.storage_width_bits % 8 == 0 &&
                   field.storage_width_bits <= 64,
               "relevant field '" + field.path +
                   "' is not a whole number of bytes up to 8");
  fields_.push_back(PlanField{field.storage_offset_bits,
                              field.storage_width_bits,
                              field.padded_offset_bits,
                              field_interp(field.primitive)});
}

void RecordPlan::add_copy(std::uint32_t src_bits, std::uint32_t dst_bits,
                          std::uint32_t width_bits) {
  NDPGEN_CHECK(src_bits % 8 == 0 && dst_bits % 8 == 0 && width_bits % 8 == 0,
               "record plans copy whole bytes");
  const Segment next{src_bits / 8, dst_bits / 8, width_bits / 8};
  if (!segments_.empty()) {
    Segment& last = segments_.back();
    if (last.src + last.bytes == next.src &&
        last.dst + last.bytes == next.dst) {
      last.bytes += next.bytes;
      return;
    }
  }
  segments_.push_back(next);
}

void RecordPlan::project(std::span<const std::uint8_t> record,
                         std::span<std::uint8_t> out) const {
  NDPGEN_CHECK_ARG(record.size() == input_bytes_,
                   "record size does not match the layout");
  NDPGEN_CHECK_ARG(out.size() == output_bytes_,
                   "output size does not match the layout");
  for (const Segment& segment : segments_) {
    std::copy_n(record.begin() + segment.src, segment.bytes,
                out.begin() + segment.dst);
  }
}

std::vector<std::uint8_t> RecordPlan::project(
    std::span<const std::uint8_t> record) const {
  std::vector<std::uint8_t> out(output_bytes_);
  project(record, out);
  return out;
}

}  // namespace ndpgen::analysis
