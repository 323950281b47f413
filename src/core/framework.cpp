#include "core/framework.hpp"

#include "spec/parser.hpp"
#include "support/error.hpp"

namespace ndpgen::core {

const ParserArtifacts* CompileResult::find(std::string_view name) const
    noexcept {
  for (const auto& artifacts : parsers) {
    if (artifacts.analyzed.name == name) return &artifacts;
  }
  return nullptr;
}

const ParserArtifacts& CompileResult::get(std::string_view name) const {
  const ParserArtifacts* artifacts = find(name);
  if (artifacts == nullptr) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  "no parser named '" + std::string(name) +
                      "' in this compilation");
  }
  return *artifacts;
}

Framework::Framework(FrameworkOptions options)
    : options_(std::move(options)) {}

CompileResult Framework::compile(std::string_view spec_source) const {
  CompileResult result;
  spec::DiagnosticSink sink;
  result.module = spec::parse_spec(spec_source, &sink);
  result.warnings = sink.diagnostics();

  for (const auto& parser_spec : result.module.parsers) {
    ParserArtifacts artifacts{
        analysis::analyze_parser(result.module, parser_spec),
        hwgen::PEDesign{},
        {},
        {},
        {},
        {}};
    artifacts.design = hwgen::build_pe_design(artifacts.analyzed, options_.hw);
    artifacts.verilog = hwgen::emit_verilog(artifacts.design);
    artifacts.software_interface =
        hwgen::generate_software_interface(artifacts.design, options_.swif);
    artifacts.resources_in_context =
        hwgen::estimate_pe(artifacts.design, hwgen::SynthesisMode::kInContext);
    artifacts.resources_out_of_context = hwgen::estimate_pe(
        artifacts.design, hwgen::SynthesisMode::kOutOfContext);
    result.parsers.push_back(std::move(artifacts));
  }
  return result;
}

std::size_t Framework::instantiate(const CompileResult& compiled,
                                   std::string_view parser_name,
                                   platform::CosmosPlatform& platform) const {
  const ParserArtifacts& artifacts = compiled.get(parser_name);
  return platform.attach_pe(artifacts.design);
}

}  // namespace ndpgen::core
