// Contextual-analysis driver: AST -> analyzed parser definition.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "analysis/layout.hpp"
#include "analysis/mapping.hpp"
#include "analysis/record_plan.hpp"
#include "spec/ast.hpp"

namespace ndpgen::analysis {

/// Everything the generator needs about one `@autogen` parser definition:
/// fully analyzed input/output layouts, the resolved field mapping and the
/// record plan compiled from them.
struct AnalyzedParser {
  std::string name;
  std::uint32_t chunk_size_bytes = 32 * 1024;
  std::uint32_t filter_stages = 1;
  std::vector<std::string> operators;  ///< Empty = standard set.
  bool aggregate = false;  ///< Spec requested an aggregation unit.

  TupleLayout input;
  TupleLayout output;
  ResolvedMapping mapping;
  RecordPlan plan;  ///< How software reads and projects stored tuples.

  /// Tuples per chunk at input granularity (floor). Data blocks only carry
  /// whole tuples, so the remainder of a chunk is slack.
  [[nodiscard]] std::uint32_t tuples_per_chunk() const noexcept {
    const std::uint32_t bytes = input.storage_bytes();
    return bytes == 0 ? 0 : chunk_size_bytes / bytes;
  }
};

/// Runs the full contextual analysis for one parser definition of `module`.
/// Throws Error{kSemantic} on any semantic problem.
[[nodiscard]] AnalyzedParser analyze_parser(const spec::SpecModule& module,
                                            const spec::ParserSpec& parser);

/// Convenience: looks up `parser_name` in the module first.
[[nodiscard]] AnalyzedParser analyze_parser(const spec::SpecModule& module,
                                            std::string_view parser_name);

/// Analyzes every parser in the module (in declaration order).
[[nodiscard]] std::vector<AnalyzedParser> analyze_all(
    const spec::SpecModule& module);

}  // namespace ndpgen::analysis
