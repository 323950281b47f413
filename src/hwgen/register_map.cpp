#include "hwgen/register_map.hpp"

#include "support/error.hpp"

namespace ndpgen::hwgen {

std::uint32_t RegisterMap::add(std::string name, RegAccess access,
                               std::string description) {
  NDPGEN_CHECK_ARG(find(name) == nullptr,
                   "duplicate register name '" + name + "'");
  const std::uint32_t offset = span_bytes();
  registers_.push_back(
      RegisterDef{std::move(name), offset, access, std::move(description)});
  return offset;
}

const RegisterDef* RegisterMap::find(std::string_view name) const noexcept {
  for (const auto& def : registers_) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

std::uint32_t RegisterMap::offset_of(std::string_view name) const {
  const RegisterDef* def = find(name);
  NDPGEN_CHECK(def != nullptr,
               "register '" + std::string(name) + "' not in map");
  return def->offset;
}

const RegisterDef* RegisterMap::at_offset(std::uint32_t offset) const
    noexcept {
  // add() places register i at offset 4 * i.
  if (offset % 4 != 0 || offset / 4 >= registers_.size()) return nullptr;
  return &registers_[offset / 4];
}

namespace reg {

std::string filter_field(std::uint32_t stage) {
  return "FILTER_FIELD_" + std::to_string(stage);
}
std::string filter_op(std::uint32_t stage) {
  return "FILTER_OP_" + std::to_string(stage);
}
std::string filter_value_lo(std::uint32_t stage) {
  return "FILTER_VALUE_LO_" + std::to_string(stage);
}
std::string filter_value_hi(std::uint32_t stage) {
  return "FILTER_VALUE_HI_" + std::to_string(stage);
}

}  // namespace reg

RegisterMap build_standard_register_map(std::uint32_t filter_stages,
                                        bool configurable_io,
                                        bool aggregation) {
  NDPGEN_CHECK_ARG(filter_stages >= 1, "PE needs at least one filter stage");
  RegisterMap map;
  map.add(std::string(reg::kStart), RegAccess::kReadWrite,
          "Write 1 to start processing the configured chunk.");
  map.add(std::string(reg::kBusy), RegAccess::kReadOnly,
          "1 while the PE is processing.");
  map.add(std::string(reg::kInAddrLo), RegAccess::kReadWrite,
          "DRAM source address of the input chunk (low 32 bits).");
  map.add(std::string(reg::kInAddrHi), RegAccess::kReadWrite,
          "DRAM source address of the input chunk (high 32 bits).");
  map.add(std::string(reg::kOutAddrLo), RegAccess::kReadWrite,
          "DRAM destination address for results (low 32 bits).");
  map.add(std::string(reg::kOutAddrHi), RegAccess::kReadWrite,
          "DRAM destination address for results (high 32 bits).");
  if (configurable_io) {
    map.add(std::string(reg::kInSize), RegAccess::kReadWrite,
            "Bytes of the input chunk to load (partial blocks allowed).");
  }
  map.add(std::string(reg::kOutSize), RegAccess::kReadOnly,
          "Bytes written to the destination buffer by the last run.");
  map.add(std::string(reg::kTupleCount), RegAccess::kReadOnly,
          "Tuples emitted by the last run.");
  for (std::uint32_t stage = 0; stage < filter_stages; ++stage) {
    map.add(reg::filter_field(stage), RegAccess::kReadWrite,
            "Field selector of filter stage " + std::to_string(stage) + ".");
    map.add(reg::filter_value_lo(stage), RegAccess::kReadWrite,
            "Compare value of stage " + std::to_string(stage) +
                " (low 32 bits).");
    map.add(reg::filter_value_hi(stage), RegAccess::kReadWrite,
            "Compare value of stage " + std::to_string(stage) +
                " (high 32 bits).");
    map.add(reg::filter_op(stage), RegAccess::kReadWrite,
            "Operator selector of stage " + std::to_string(stage) + ".");
  }
  map.add(std::string(reg::kFilterCounter), RegAccess::kReadOnly,
          "Tuples that passed all filter stages in the last run.");
  map.add(std::string(reg::kCycleCounter), RegAccess::kReadOnly,
          "PE clock cycles spent on the last run (debug/profiling).");
  if (aggregation) {
    map.add(std::string(reg::kAggOp), RegAccess::kReadWrite,
            "Aggregation operation (0 none/pass, 1 count, 2 sum, 3 min, "
            "4 max).");
    map.add(std::string(reg::kAggField), RegAccess::kReadWrite,
            "Field selector for the aggregation operand.");
    map.add(std::string(reg::kAggResultLo), RegAccess::kReadOnly,
            "Aggregation result (low 32 bits).");
    map.add(std::string(reg::kAggResultHi), RegAccess::kReadOnly,
            "Aggregation result (high 32 bits).");
    map.add(std::string(reg::kAggCount), RegAccess::kReadOnly,
            "Tuples folded into the aggregate in the last run.");
  }
  return map;
}

}  // namespace ndpgen::hwgen
