#include "analysis/analyzer.hpp"

#include "analysis/passes.hpp"
#include "support/error.hpp"

namespace ndpgen::analysis {

AnalyzedParser analyze_parser(const spec::SpecModule& module,
                              const spec::ParserSpec& parser) {
  AnalyzedParser analyzed;
  analyzed.name = parser.name;
  analyzed.chunk_size_bytes = parser.chunk_size_kb * 1024;
  analyzed.filter_stages = parser.filter_stages;
  analyzed.operators = parser.operators;
  analyzed.aggregate = parser.aggregate;

  auto input_tree = build_type_tree(module, parser.input_type);
  run_all_passes(*input_tree);
  analyzed.input = compute_layout(*input_tree);

  auto output_tree = build_type_tree(module, parser.output_type);
  run_all_passes(*output_tree);
  analyzed.output = compute_layout(*output_tree);

  if (analyzed.input.storage_bytes() > analyzed.chunk_size_bytes) {
    ndpgen::raise(ErrorKind::kSemantic,
                  "tuple '" + parser.input_type + "' (" +
                      std::to_string(analyzed.input.storage_bytes()) +
                      " bytes) does not fit the " +
                      std::to_string(parser.chunk_size_kb) + " KiB chunk");
  }

  analyzed.mapping =
      resolve_mapping(analyzed.input, analyzed.output, parser.mapping);
  analyzed.plan =
      RecordPlan(analyzed.input, analyzed.output, analyzed.mapping);
  return analyzed;
}

AnalyzedParser analyze_parser(const spec::SpecModule& module,
                              std::string_view parser_name) {
  const auto* parser = module.find_parser(parser_name);
  if (parser == nullptr) {
    ndpgen::raise(ErrorKind::kSemantic,
                  "no @autogen parser named '" + std::string(parser_name) +
                      "'");
  }
  return analyze_parser(module, *parser);
}

std::vector<AnalyzedParser> analyze_all(const spec::SpecModule& module) {
  std::vector<AnalyzedParser> analyzed;
  analyzed.reserve(module.parsers.size());
  for (const auto& parser : module.parsers) {
    analyzed.push_back(analyze_parser(module, parser));
  }
  return analyzed;
}

}  // namespace ndpgen::analysis
