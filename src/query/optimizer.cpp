#include "query/optimizer.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace ndpgen::query {

namespace {

bool contains(const std::vector<std::string>& names,
              const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

/// Collects the base columns of `dataset` that `tail` can still observe:
/// every column an operator references, up to and including the first
/// schema-narrowing operator (project or aggregate) — columns surviving
/// past that point were necessarily referenced by it. Without a narrowing
/// operator the whole base schema reaches the output.
std::vector<std::string> needed_base_columns(
    Dataset dataset, const std::vector<PlanOp>& tail) {
  const std::vector<std::string>& base = dataset_columns(dataset);
  std::set<std::string> needed;
  bool narrowed = false;
  for (const auto& op : tail) {
    if (narrowed) break;
    switch (op.kind) {
      case OpKind::kScan:
        break;
      case OpKind::kFilter:
        for (const auto& pred : op.predicates) needed.insert(pred.column);
        break;
      case OpKind::kProject:
        for (const auto& name : op.columns) needed.insert(name);
        narrowed = true;
        break;
      case OpKind::kAggregate:
        if (!op.agg_column.empty()) needed.insert(op.agg_column);
        if (!op.group_column.empty()) needed.insert(op.group_column);
        narrowed = true;
        break;
      case OpKind::kTopK:
        needed.insert(op.order_column);
        break;
      case OpKind::kHashJoin:
        needed.insert(op.probe_column);
        break;
    }
  }
  if (!narrowed) return base;

  // Keep base declaration order; key columns are forced below anyway.
  std::vector<std::string> kept;
  for (const auto& name : base) {
    if (needed.contains(name)) kept.push_back(name);
  }
  return kept;
}

/// Key fields first, then the pruned remainder in declaration order.
std::vector<std::string> with_key_columns_first(
    Dataset dataset, std::vector<std::string> pruned) {
  const workload::DatasetInfo& info = workload::describe(dataset);
  std::vector<std::string> out(info.columns.begin(),
                               info.columns.begin() + info.key_columns);
  for (const auto& name : pruned) {
    if (!contains(out, name)) out.push_back(name);
  }
  return out;
}

}  // namespace

Result<OptimizedPlan> optimize(const Plan& plan) {
  auto schema = validate(plan);
  if (!schema.ok()) return Result<OptimizedPlan>(schema.status());

  OptimizedPlan optimized;
  optimized.plan = plan;
  optimized.schema = schema.value();

  // Predicate pushdown: every leading filter conjunction collapses into
  // the leaf (the schema is still the base schema there, so each
  // predicate names a scannable field).
  std::size_t cut = 1;
  while (cut < plan.ops.size() && plan.ops[cut].kind == OpKind::kFilter) {
    for (const auto& pred : plan.ops[cut].predicates) {
      optimized.pushdown.push_back(pred);
    }
    ++cut;
  }
  optimized.tail.assign(plan.ops.begin() + static_cast<std::ptrdiff_t>(cut),
                        plan.ops.end());

  const Dataset probe = plan.scan().dataset;
  optimized.probe_columns = with_key_columns_first(
      probe, needed_base_columns(probe, optimized.tail));

  for (const auto& op : optimized.tail) {
    if (op.kind != OpKind::kHashJoin) continue;
    optimized.build_dataset = op.build_dataset;
    // The build side observes: its join key plus every dotted reference
    // downstream of the join, plus undotted build columns never occur
    // (dotting is how the schema disambiguates them).
    const std::string prefix(to_string(op.build_dataset));
    std::set<std::string> needed = {op.build_column};
    bool after_join = false;
    bool narrowed = false;
    for (const auto& tail_op : optimized.tail) {
      if (&tail_op == &op) {
        after_join = true;
        continue;
      }
      if (!after_join || narrowed) continue;
      auto note = [&](const std::string& name) {
        if (name.rfind(prefix + ".", 0) == 0) {
          needed.insert(name.substr(prefix.size() + 1));
        }
      };
      for (const auto& pred : tail_op.predicates) note(pred.column);
      for (const auto& name : tail_op.columns) note(name);
      if (!tail_op.agg_column.empty()) note(tail_op.agg_column);
      if (!tail_op.group_column.empty()) note(tail_op.group_column);
      if (!tail_op.order_column.empty()) note(tail_op.order_column);
      if (tail_op.kind == OpKind::kProject ||
          tail_op.kind == OpKind::kAggregate) {
        narrowed = true;
      }
    }
    // Without a narrowing operator downstream every build column reaches
    // the output (validate() appends the full prefixed base schema), so
    // pruning would change the result bytes.
    std::vector<std::string> pruned;
    for (const auto& name : dataset_columns(op.build_dataset)) {
      if (!narrowed || needed.contains(name)) pruned.push_back(name);
    }
    optimized.build_columns =
        with_key_columns_first(op.build_dataset, std::move(pruned));
  }
  return optimized;
}

std::string OptimizedPlan::describe() const {
  std::ostringstream out;
  out << "optimized " << plan.name << ": pushdown=[";
  for (std::size_t i = 0; i < pushdown.size(); ++i) {
    out << (i == 0 ? "" : ", ") << pushdown[i].column << " " << pushdown[i].op
        << " " << pushdown[i].value;
  }
  out << "] probe_columns=[";
  for (std::size_t i = 0; i < probe_columns.size(); ++i) {
    out << (i == 0 ? "" : ", ") << probe_columns[i];
  }
  out << "]";
  if (build_dataset) {
    out << " build=" << to_string(*build_dataset) << " build_columns=[";
    for (std::size_t i = 0; i < build_columns.size(); ++i) {
      out << (i == 0 ? "" : ", ") << build_columns[i];
    }
    out << "]";
  }
  out << " tail_ops=" << tail.size();
  return out.str();
}

}  // namespace ndpgen::query
