#include "query/compiler.hpp"

#include <algorithm>
#include <sstream>

#include "core/framework.hpp"

namespace ndpgen::query {

namespace {

bool contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Synthesizes the format-specification source for one leaf: the fixed
/// input schema of the dataset, an output struct holding exactly
/// `columns` (auto-mapped by field name), and the @autogen definition
/// with the chosen chain length. This text is what "the plan compiles
/// down to" — the CLI prints it under --explain.
std::string synthesize_spec(Dataset dataset,
                            const std::vector<std::string>& columns,
                            std::uint32_t stages, bool aggregate) {
  const workload::DatasetInfo& info = workload::describe(dataset);
  std::ostringstream out;
  out << info.record_struct << "\n";
  const std::string input(info.input_type);

  // Identity projection reuses the input type (identity transform unit);
  // anything narrower gets its own output struct, auto-mapped by name.
  const bool identity = columns == dataset_columns(dataset) ||
                        (dataset == Dataset::kRefs && columns.size() == 2);
  std::string output = input;
  if (!identity) {
    output = "QueryLeafOut";
    out << "typedef struct {\n";
    for (const auto& column : columns) {
      const auto at =
          std::find(info.columns.begin(), info.columns.end(), column);
      NDPGEN_CHECK(at != info.columns.end(),
                   "leaf column '" + column + "' is not a dataset column");
      out << "  " << info.column_types[at - info.columns.begin()] << " "
          << column << ";\n";
    }
    out << "} QueryLeafOut;\n\n";
  }

  out << "/* @autogen define parser QueryLeaf with chunksize = 32, input = "
      << input << ", output = " << output << ", filters = " << stages;
  if (aggregate) out << ", aggregate = true";
  out << " */\n";
  return out.str();
}

/// Leaf output columns for a given cut: the pruned set plus any column a
/// SW residual predicate still needs to observe.
std::vector<std::string> columns_for_cut(
    std::vector<std::string> columns,
    const std::vector<PlanPredicate>& residual) {
  for (const auto& pred : residual) {
    if (!contains(columns, pred.column)) columns.push_back(pred.column);
  }
  return columns;
}

LeafPipeline lower_leaf(Dataset dataset,
                        const std::vector<std::string>& pruned_columns,
                        const std::vector<PlanPredicate>& predicates,
                        const CompileOptions& options, bool aggregate) {
  LeafPipeline leaf;
  leaf.dataset = dataset;
  leaf.parser_name = "QueryLeaf";

  const core::Framework framework;
  const auto pred_count = static_cast<std::uint32_t>(predicates.size());

  if (!options.force_software) {
    // Longest-prefix cut: try the full chain, shorten one stage at a time.
    // Area composition is monotonic in chain length (see price_chain), so
    // the first fit is the maximal HW prefix.
    const std::uint32_t want =
        std::clamp<std::uint32_t>(pred_count, 1, options.budget.max_stages);
    for (std::uint32_t stages = want; stages >= 1; --stages) {
      std::vector<PlanPredicate> residual(
          predicates.begin() + std::min<std::size_t>(stages, pred_count),
          predicates.end());
      const auto columns = columns_for_cut(pruned_columns, residual);
      const std::string spec =
          synthesize_spec(dataset, columns, stages, aggregate);
      const auto compiled = framework.compile(spec);
      const auto& design = compiled.get("QueryLeaf").design;
      auto pricing = hwgen::price_chain(
          design, hwgen::SynthesisMode::kInContext, options.budget);
      if (pricing.ok()) {
        leaf.offloaded = true;
        leaf.columns = columns;
        leaf.pushed.assign(
            predicates.begin(),
            predicates.begin() + std::min<std::size_t>(stages, pred_count));
        leaf.residual = std::move(residual);
        leaf.spec_source = spec;
        leaf.pricing = std::move(pricing).value();
        return leaf;
      }
      leaf.fallback_reason = pricing.status().message;
    }
    leaf.fallback_reason =
        "no chain length fits the slot budget (" + leaf.fallback_reason + ")";
  } else {
    leaf.fallback_reason = "software execution forced";
  }

  // Host-classic fallback: every block crosses NVMe, predicates evaluate
  // on the host. The synthesized parser still defines the output layout
  // (the software path applies the same transform), with a single nop
  // filter stage.
  leaf.offloaded = false;
  leaf.columns = pruned_columns;
  leaf.pushed = predicates;  // All evaluated by the host software path.
  leaf.spec_source = synthesize_spec(dataset, leaf.columns, 1, false);
  return leaf;
}

}  // namespace

Result<CompiledPlan> compile_plan(const Plan& plan,
                                  const CompileOptions& options) {
  auto optimized = optimize(plan);
  if (!optimized.ok()) return Result<CompiledPlan>(optimized.status());

  CompiledPlan compiled;
  compiled.optimized = std::move(optimized).value();
  const OptimizedPlan& opt = compiled.optimized;

  // Whole-plan on-device fold: probe-only plan whose tail is exactly one
  // ungrouped aggregate. Attempt the aggregate-unit lowering first; if
  // the extra unit blows the budget, the plain chain + SW tail remains.
  const bool fold_candidate =
      !opt.build_dataset && opt.tail.size() == 1 &&
      opt.tail.front().kind == OpKind::kAggregate &&
      opt.tail.front().group_column.empty() && !options.force_software;
  if (fold_candidate) {
    LeafPipeline leaf = lower_leaf(opt.plan.scan().dataset,
                                   opt.probe_columns, opt.pushdown, options,
                                   /*aggregate=*/true);
    if (leaf.offloaded && leaf.residual.empty()) {
      leaf.hw_aggregate = true;
      leaf.agg_op = opt.tail.front().agg_op;
      leaf.agg_column = opt.tail.front().agg_column;
      compiled.probe = std::move(leaf);
      return compiled;
    }
  }

  compiled.probe = lower_leaf(opt.plan.scan().dataset, opt.probe_columns,
                              opt.pushdown, options, /*aggregate=*/false);
  if (opt.build_dataset) {
    compiled.build = lower_leaf(*opt.build_dataset, opt.build_columns, {},
                                options, /*aggregate=*/false);
  }
  return compiled;
}

std::string CompiledPlan::explain() const {
  std::ostringstream out;
  out << optimized.describe() << "\n";
  auto leaf_line = [&](const char* label, const LeafPipeline& leaf) {
    out << label << " leaf (" << to_string(leaf.dataset) << "): ";
    if (leaf.offloaded) {
      out << "HW chain, " << leaf.pushed.size() << " pushed predicate(s) on "
          << leaf.pricing.filter_stages << " stage(s), "
          << static_cast<long>(leaf.pricing.total.slices + 0.5)
          << " slices (" << leaf.pricing.pipeline_fill_cycles
          << "-cycle fill)";
      if (leaf.hw_aggregate) {
        out << ", on-device " << hwgen::to_string(leaf.agg_op) << " fold";
      }
      if (!leaf.residual.empty()) {
        out << ", " << leaf.residual.size() << " residual predicate(s) in SW";
      }
    } else {
      out << "SW fallback (" << leaf.fallback_reason << "), "
          << leaf.pushed.size() << " host-evaluated predicate(s)";
    }
    out << "\n";
  };
  leaf_line("probe", probe);
  if (build) leaf_line("build", *build);
  out << "tail: " << optimized.tail.size() << " SW operator(s)";
  return out.str();
}

}  // namespace ndpgen::query
