// Plan compiler: logical plans -> chained PE netlists + SW tail.
//
// The lowering is the paper's "automatic generation" story applied to
// whole plans instead of single parsers. For every scan leaf the compiler
//
//  1. synthesizes a format-specification source (Fig. 4 syntax) whose
//     output struct is the leaf's pruned column set and whose `filters`
//     option is the number of pushed predicates — i.e. the plan IS the
//     operator description the framework compiles;
//  2. runs the full framework pipeline on it (parse -> contextual
//     analysis -> template elaboration), yielding a chained PE design;
//  3. prices the chain with hwgen::price_chain against the slot budget,
//     and chooses the HW/SW cut: if N pushed predicates do not fit, it
//     retries with N-1 chained stages (the dropped predicate becomes a
//     SW residual on the leaf's output rows), down to a full host-side
//     fallback when not even the bare pipeline fits — or when the caller
//     forces software execution.
//
// Operators the template has no unit for (hash-join, group-by-aggregate,
// top-k, post-narrowing filters) always execute in the SW tail. The one
// exception is a plan that ends in a bare ungrouped aggregate with every
// predicate pushed: that folds entirely on-device in the aggregate unit
// (only the result registers cross NVMe).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "hwgen/resource_model.hpp"
#include "query/optimizer.hpp"

namespace ndpgen::query {

struct CompileOptions {
  /// Forbid PE offload: every leaf runs the classical host path (ship all
  /// blocks over NVMe, filter on the host). The forced SW-fallback cut.
  bool force_software = false;
  /// Slot budget each leaf chain must fit (see hwgen::default_chain_budget).
  hwgen::ChainBudget budget = hwgen::default_chain_budget();
};

/// One compiled scan leaf: the device-side pipeline feeding the SW tail.
struct LeafPipeline {
  Dataset dataset = Dataset::kPapers;
  std::string parser_name;
  std::string spec_source;  ///< Synthesized specification (explain/debug).
  /// Device output columns (key fields first; superset of the pruned
  /// column set when SW residual predicates need extra fields).
  std::vector<std::string> columns;
  /// Predicates mapped onto chained filter stages (plan order).
  std::vector<PlanPredicate> pushed;
  /// Predicates past the cut: evaluated on output rows in the SW tail.
  std::vector<PlanPredicate> residual;
  bool offloaded = false;        ///< PE chain vs host-classic fallback.
  std::string fallback_reason;   ///< Why !offloaded (forced / over budget).
  hwgen::ChainPricing pricing;   ///< Valid when offloaded.
  /// Whole-plan on-device fold (ungrouped aggregate, all filters pushed).
  bool hw_aggregate = false;
  hwgen::AggOp agg_op = hwgen::AggOp::kNone;
  std::string agg_column;
};

struct CompiledPlan {
  OptimizedPlan optimized;
  LeafPipeline probe;
  std::optional<LeafPipeline> build;

  /// True when any leaf runs as a chained PE netlist.
  [[nodiscard]] bool any_offloaded() const noexcept {
    return probe.offloaded || (build && build->offloaded);
  }
  /// Human-readable lowering report (CLI --explain).
  [[nodiscard]] std::string explain() const;
};

/// Compiles a validated plan. Fails with located kPlanInvalid on semantic
/// errors; lowering itself cannot fail (the host fallback always exists).
[[nodiscard]] Result<CompiledPlan> compile_plan(
    const Plan& plan, const CompileOptions& options = {});

}  // namespace ndpgen::query
