#include "analysis/mapping.hpp"

#include <optional>

#include "analysis/record_plan.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace ndpgen::analysis {

namespace {

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (const auto& piece : path) {
    if (!out.empty()) out.push_back('.');
    out += piece;
  }
  return out;
}

/// Collects indices of leaves whose path equals `prefix` or starts with
/// `prefix` + '.'. Order is layout (declaration) order.
std::vector<std::size_t> leaves_under(const TupleLayout& layout,
                                      const std::string& prefix) {
  std::vector<std::size_t> result;
  const std::string dotted = prefix + ".";
  for (std::size_t i = 0; i < layout.fields.size(); ++i) {
    const std::string& path = layout.fields[i].path;
    if (path == prefix || support::starts_with(path, dotted)) {
      result.push_back(i);
    }
  }
  return result;
}

void check_compatible(const FieldLayout& out_field,
                      const FieldLayout& in_field) {
  if (out_field.relevant != in_field.relevant) {
    ndpgen::raise(ErrorKind::kSemantic,
                  "cannot map string postfix to filterable field: '" +
                      in_field.path + "' -> '" + out_field.path + "'");
  }
  if (out_field.storage_width_bits != in_field.storage_width_bits) {
    ndpgen::raise(ErrorKind::kSemantic,
                  "width mismatch mapping '" + in_field.path + "' (" +
                      std::to_string(in_field.storage_width_bits) +
                      "b) to '" + out_field.path + "' (" +
                      std::to_string(out_field.storage_width_bits) + "b)");
  }
  if (out_field.relevant &&
      (field_interp(out_field.primitive) == FieldInterp::kFloat) !=
          (field_interp(in_field.primitive) == FieldInterp::kFloat)) {
    ndpgen::raise(ErrorKind::kSemantic,
                  "float/integer mismatch mapping '" + in_field.path +
                      "' to '" + out_field.path + "'");
  }
}

}  // namespace

ResolvedMapping resolve_mapping(const TupleLayout& input,
                                const TupleLayout& output,
                                const std::vector<spec::MappingEntry>& entries) {
  ResolvedMapping resolved;
  std::vector<std::optional<std::size_t>> source(output.fields.size());

  // Explicit user entries take precedence (case 3).
  for (const auto& entry : entries) {
    const std::string out_prefix = join_path(entry.output_path);
    const std::string in_prefix = join_path(entry.input_path);
    const auto out_leaves = leaves_under(output, out_prefix);
    const auto in_leaves = leaves_under(input, in_prefix);
    if (out_leaves.empty()) {
      ndpgen::raise(ErrorKind::kSemantic,
                    "mapping target 'output." + out_prefix +
                        "' does not name any output field");
    }
    if (in_leaves.empty()) {
      ndpgen::raise(ErrorKind::kSemantic,
                    "mapping source 'input." + in_prefix +
                        "' does not name any input field");
    }
    if (out_leaves.size() != in_leaves.size()) {
      ndpgen::raise(ErrorKind::kSemantic,
                    "mapping 'output." + out_prefix + " = input." +
                        in_prefix + "' pairs " +
                        std::to_string(out_leaves.size()) + " fields with " +
                        std::to_string(in_leaves.size()));
    }
    for (std::size_t i = 0; i < out_leaves.size(); ++i) {
      check_compatible(output.fields[out_leaves[i]],
                       input.fields[in_leaves[i]]);
      if (source[out_leaves[i]].has_value()) {
        ndpgen::raise(ErrorKind::kSemantic,
                      "output field '" + output.fields[out_leaves[i]].path +
                          "' is mapped more than once");
      }
      source[out_leaves[i]] = in_leaves[i];
    }
  }

  // Automatic matching by identical path (case 2). The paper: "the
  // framework will automatically match each (nested) field of the
  // output-struct to the appropriate (if any) field of the input-struct".
  for (std::size_t i = 0; i < output.fields.size(); ++i) {
    if (source[i].has_value()) continue;
    const auto match = input.find_field(output.fields[i].path);
    if (!match.has_value()) {
      ndpgen::raise(
          ErrorKind::kSemantic,
          "output field '" + output.fields[i].path +
              "' has no input counterpart; add a mapping entry "
              "'output." + output.fields[i].path + " = input.<field>'");
    }
    check_compatible(output.fields[i], input.fields[*match]);
    source[i] = *match;
  }

  resolved.wires.reserve(output.fields.size());
  for (std::size_t i = 0; i < output.fields.size(); ++i) {
    resolved.wires.push_back(LeafMapping{i, *source[i]});
  }

  // Case 1: structural identity — every wire maps i -> i and the packed
  // layouts agree exactly.
  resolved.identity =
      input.fields.size() == output.fields.size() &&
      input.storage_bits == output.storage_bits;
  if (resolved.identity) {
    for (const auto& wire : resolved.wires) {
      const auto& in_field = input.fields[wire.input_field];
      const auto& out_field = output.fields[wire.output_field];
      if (wire.input_field != wire.output_field ||
          in_field.storage_offset_bits != out_field.storage_offset_bits ||
          in_field.storage_width_bits != out_field.storage_width_bits) {
        resolved.identity = false;
        break;
      }
    }
  }
  return resolved;
}

}  // namespace ndpgen::analysis
