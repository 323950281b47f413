// The ndpgen framework facade: the public entry point a database engineer
// uses (paper §II: "the proposed framework is usable without any knowledge
// about hardware development or HDLs").
//
// One call compiles a C-style format specification into the full artifact
// bundle per @autogen parser: analyzed layouts, the elaborated PE design,
// the Verilog source, the header-only C software interface, and resource
// estimates — plus helpers to instantiate the PE on a simulated Cosmos+
// platform for execution.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analyzer.hpp"
#include "hwgen/pe_design.hpp"
#include "hwgen/resource_model.hpp"
#include "hwgen/swif_generator.hpp"
#include "hwgen/template_builder.hpp"
#include "hwgen/verilog_emitter.hpp"
#include "platform/cosmos.hpp"
#include "spec/ast.hpp"
#include "spec/diagnostics.hpp"

namespace ndpgen::core {

/// Everything generated for one @autogen parser definition.
struct ParserArtifacts {
  analysis::AnalyzedParser analyzed;
  hwgen::PEDesign design;
  std::string verilog;
  std::string software_interface;
  hwgen::PEResourceReport resources_in_context;
  hwgen::PEResourceReport resources_out_of_context;
};

/// Result of compiling one specification module.
struct CompileResult {
  spec::SpecModule module;
  std::vector<ParserArtifacts> parsers;
  std::vector<spec::Diagnostic> warnings;

  [[nodiscard]] const ParserArtifacts* find(std::string_view name) const
      noexcept;
  [[nodiscard]] const ParserArtifacts& get(std::string_view name) const;
};

struct FrameworkOptions {
  hwgen::TemplateOptions hw{};
  hwgen::SwifOptions swif{};
};

class Framework {
 public:
  explicit Framework(FrameworkOptions options = FrameworkOptions());

  /// Compiles a specification: parse -> contextual analysis -> template
  /// elaboration -> code generation -> resource estimation.
  /// Throws ndpgen::Error on any stage failure.
  [[nodiscard]] CompileResult compile(std::string_view spec_source) const;

  /// Attaches the named parser's PE design to a platform; returns the PE
  /// index (ExecutorConfig::pe_indices).
  std::size_t instantiate(const CompileResult& compiled,
                          std::string_view parser_name,
                          platform::CosmosPlatform& platform) const;

  [[nodiscard]] const FrameworkOptions& options() const noexcept {
    return options_;
  }

 private:
  FrameworkOptions options_;
};

}  // namespace ndpgen::core
