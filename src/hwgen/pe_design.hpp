// Processing-element design IR.
//
// A PEDesign is the framework's intermediate representation of one
// generated accelerator: the module instances of the architecture template
// (Fig. 3), their parameters, the pipeline connections, the register map
// and the analyzed tuple layouts. It is consumed by
//   * the Verilog emitter        (hardware artifact),
//   * the software-interface generator (host artifact),
//   * the resource model          (area estimation),
//   * the hwsim PE builder        (cycle-level execution).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "hwgen/operators.hpp"
#include "hwgen/pe_platform.hpp"
#include "hwgen/register_map.hpp"

namespace ndpgen::hwgen {

/// Module kinds of the architecture template (Fig. 3 components a-d).
/// kAggregateUnit is this implementation's realization of the paper's
/// outlook (§VII): on-device computation beyond filter+transform.
enum class ModuleKind : std::uint8_t {
  kControlRegs,        // (a) control component
  kLoadUnit,           // (b) memory interface, load side
  kStoreUnit,          // (b) memory interface, store side
  kTupleInputBuffer,   // (c) accessor component
  kTupleOutputBuffer,  // (c)
  kFilterStage,        // (d) computation: filtering unit (chainable)
  kTransformUnit,      // (d) computation: data transformation unit
  kAggregateUnit,      // (d) computation: optional aggregation (extension)
};

[[nodiscard]] std::string_view to_string(ModuleKind kind) noexcept;

/// One instantiated module with its elaboration-time parameters.
struct ModuleInstance {
  ModuleKind kind;
  std::string name;  ///< Unique instance name, e.g. "filter_stage_1".
  std::map<std::string, std::uint64_t> params;

  [[nodiscard]] std::uint64_t param(const std::string& key) const;
};

/// Directed stream connection between two module instances.
struct Connection {
  std::string from;
  std::string to;
};

/// Design flavor: our generated template vs the hand-crafted units of [1],
/// which are modeled for the evaluation baselines.
enum class DesignFlavor : std::uint8_t { kGenerated, kHandcraftedBaseline };

[[nodiscard]] std::string_view to_string(DesignFlavor flavor) noexcept;

/// A complete PE design.
struct PEDesign {
  std::string name;
  DesignFlavor flavor = DesignFlavor::kGenerated;
  analysis::AnalyzedParser parser;
  OperatorSet operators;
  RegisterMap regmap;
  std::vector<ModuleInstance> modules;
  std::vector<Connection> connections;

  /// Hand-crafted baseline designs hard-code the payload geometry of a
  /// data block into the HDL (no IN_SIZE register): bytes of valid tuples
  /// per 32 KB block. 0 = fully-packed block assumed.
  std::uint32_t static_payload_bytes = 0;

  [[nodiscard]] std::uint32_t filter_stage_count() const noexcept;
  [[nodiscard]] const ModuleInstance* find_module(std::string_view name) const
      noexcept;
  [[nodiscard]] std::vector<const ModuleInstance*> modules_of_kind(
      ModuleKind kind) const;

  /// Downstream module of `name` in the pipeline, if unique.
  [[nodiscard]] const ModuleInstance* successor(std::string_view name) const
      noexcept;

  /// Validates structural invariants (single pipeline, regs present,
  /// stage numbering dense). Throws Error{kGeneration} on violation.
  void validate() const;
};

}  // namespace ndpgen::hwgen
