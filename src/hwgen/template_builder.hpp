// Architecture-template elaboration: analyzed parser -> PEDesign.
//
// "While the concrete functionality of the accelerators is automatically
// generated to match the specified filtering and data transformations, all
// accelerators use the same architectural template" (§IV-A). This builder
// is that template: it instantiates the control component, memory
// interface, accessor component and computation component, parameterized
// by the analyzed layouts, and wires them into the latency-insensitive
// pipeline.
#pragma once

#include "analysis/analyzer.hpp"
#include "hwgen/pe_design.hpp"

namespace ndpgen::hwgen {

struct TemplateOptions {
  DesignFlavor flavor = DesignFlavor::kGenerated;
  /// Override the operator set (empty = derive from parser spec/standard).
  OperatorSet operators = OperatorSet::from_names({});
  bool use_spec_operators = true;
  /// For kHandcraftedBaseline: payload bytes per block baked into the HDL
  /// (0 = assume fully packed blocks). Ignored for generated designs.
  std::uint32_t static_payload_bytes = 0;
  /// Extension (paper §VII outlook): generate an on-device aggregation
  /// unit (count/sum/min/max over a selected field of the filtered
  /// tuples). Only the generated flavor supports it.
  bool enable_aggregation = false;
};

/// Elaborates the architecture template for `parser`.
///
/// For DesignFlavor::kHandcraftedBaseline the builder reproduces the design
/// points of [1]: static full-block Load/Store units (no IN_SIZE register)
/// and exactly one filter stage regardless of the spec (their architecture
/// was not chainable).
[[nodiscard]] PEDesign build_pe_design(const analysis::AnalyzedParser& parser,
                                       const TemplateOptions& options = {});

}  // namespace ndpgen::hwgen
