#include "hwgen/pe_design.hpp"

#include <unordered_set>

#include "support/error.hpp"

namespace ndpgen::hwgen {

std::string_view to_string(ModuleKind kind) noexcept {
  switch (kind) {
    case ModuleKind::kControlRegs: return "control_regs";
    case ModuleKind::kLoadUnit: return "load_unit";
    case ModuleKind::kStoreUnit: return "store_unit";
    case ModuleKind::kTupleInputBuffer: return "tuple_input_buffer";
    case ModuleKind::kTupleOutputBuffer: return "tuple_output_buffer";
    case ModuleKind::kFilterStage: return "filter_stage";
    case ModuleKind::kTransformUnit: return "transform_unit";
    case ModuleKind::kAggregateUnit: return "aggregate_unit";
  }
  return "?";
}

std::string_view to_string(DesignFlavor flavor) noexcept {
  return flavor == DesignFlavor::kGenerated ? "generated"
                                            : "handcrafted-baseline";
}

std::uint64_t ModuleInstance::param(const std::string& key) const {
  const auto it = params.find(key);
  NDPGEN_CHECK(it != params.end(), "module '" + name +
                                       "' lacks parameter '" + key + "'");
  return it->second;
}

std::uint32_t PEDesign::filter_stage_count() const noexcept {
  std::uint32_t count = 0;
  for (const auto& module : modules) {
    if (module.kind == ModuleKind::kFilterStage) ++count;
  }
  return count;
}

const ModuleInstance* PEDesign::find_module(std::string_view name) const
    noexcept {
  for (const auto& module : modules) {
    if (module.name == name) return &module;
  }
  return nullptr;
}

std::vector<const ModuleInstance*> PEDesign::modules_of_kind(
    ModuleKind kind) const {
  std::vector<const ModuleInstance*> result;
  for (const auto& module : modules) {
    if (module.kind == kind) result.push_back(&module);
  }
  return result;
}

const ModuleInstance* PEDesign::successor(std::string_view name) const
    noexcept {
  const ModuleInstance* next = nullptr;
  for (const auto& connection : connections) {
    if (connection.from == name) {
      if (next != nullptr) return nullptr;  // Not unique.
      next = find_module(connection.to);
    }
  }
  return next;
}

void PEDesign::validate() const {
  std::unordered_set<std::string> names;
  for (const auto& module : modules) {
    if (!names.insert(module.name).second) {
      ndpgen::raise(ErrorKind::kGeneration,
                    "duplicate module instance '" + module.name + "'");
    }
  }
  for (const auto& connection : connections) {
    if (!names.contains(connection.from) || !names.contains(connection.to)) {
      ndpgen::raise(ErrorKind::kGeneration,
                    "dangling connection " + connection.from + " -> " +
                        connection.to);
    }
  }
  if (modules_of_kind(ModuleKind::kControlRegs).size() != 1) {
    ndpgen::raise(ErrorKind::kGeneration,
                  "PE must have exactly one control register file");
  }
  if (modules_of_kind(ModuleKind::kLoadUnit).size() != 1 ||
      modules_of_kind(ModuleKind::kStoreUnit).size() != 1) {
    ndpgen::raise(ErrorKind::kGeneration,
                  "PE must have exactly one load and one store unit");
  }
  const std::uint32_t stages = filter_stage_count();
  if (stages == 0) {
    ndpgen::raise(ErrorKind::kGeneration,
                  "PE must have at least one filter stage");
  }
  // Stage indices must be dense 0..n-1 (they address the register map).
  std::vector<bool> seen(stages, false);
  for (const auto* stage : modules_of_kind(ModuleKind::kFilterStage)) {
    const std::uint64_t index = stage->param("stage_index");
    if (index >= stages || seen[index]) {
      ndpgen::raise(ErrorKind::kGeneration,
                    "filter stage indices must be dense and unique");
    }
    seen[index] = true;
  }
  // The datapath must form one linear pipeline from load to store.
  const auto* load = modules_of_kind(ModuleKind::kLoadUnit).front();
  std::size_t hops = 0;
  const ModuleInstance* cursor = load;
  while (cursor != nullptr && cursor->kind != ModuleKind::kStoreUnit) {
    cursor = successor(cursor->name);
    if (++hops > modules.size()) break;
  }
  if (cursor == nullptr || cursor->kind != ModuleKind::kStoreUnit) {
    ndpgen::raise(ErrorKind::kGeneration,
                  "PE datapath must be a single load->...->store pipeline");
  }
}

}  // namespace ndpgen::hwgen
