#include "query/plan.hpp"

#include <algorithm>
#include <sstream>

#include "hwgen/operators.hpp"
#include "spec/diagnostics.hpp"
#include "support/crc32c.hpp"

namespace ndpgen::query {

namespace {

/// Appends `value` little-endian.
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((value >> shift) & 0xFFu));
  }
}

bool known_operator(const std::string& name) {
  static const hwgen::OperatorSet ops = hwgen::OperatorSet::standard();
  return name != "nop" && ops.find(name) != nullptr;
}

[[nodiscard]] Result<PlanSchema> invalid(spec::SourceLoc loc,
                                         std::string message) {
  return Result<PlanSchema>(
      spec::status_at(ErrorKind::kPlanInvalid, loc, std::move(message)));
}

bool has_column(const std::vector<std::string>& schema,
                const std::string& name) {
  return std::find(schema.begin(), schema.end(), name) != schema.end();
}

}  // namespace

std::string_view to_string(OpKind kind) noexcept {
  switch (kind) {
    case OpKind::kScan: return "scan";
    case OpKind::kFilter: return "filter";
    case OpKind::kProject: return "project";
    case OpKind::kAggregate: return "aggregate";
    case OpKind::kTopK: return "topk";
    case OpKind::kHashJoin: return "join";
  }
  return "?";
}

const std::vector<std::string>& dataset_columns(Dataset dataset) {
  return workload::describe(dataset).columns;
}

std::string Plan::dump() const {
  std::ostringstream out;
  out << "plan " << name << " {\n";
  for (const auto& op : ops) {
    out << "  " << to_string(op.kind);
    switch (op.kind) {
      case OpKind::kScan:
        out << " " << to_string(op.dataset);
        break;
      case OpKind::kFilter:
        for (std::size_t i = 0; i < op.predicates.size(); ++i) {
          const auto& p = op.predicates[i];
          out << (i == 0 ? " " : ", ") << p.column << " " << p.op << " "
              << p.value;
        }
        break;
      case OpKind::kProject:
        for (std::size_t i = 0; i < op.columns.size(); ++i) {
          out << (i == 0 ? " " : ", ") << op.columns[i];
        }
        break;
      case OpKind::kAggregate:
        out << " " << hwgen::to_string(op.agg_op);
        if (!op.agg_column.empty()) out << " " << op.agg_column;
        if (!op.group_column.empty()) out << " group " << op.group_column;
        break;
      case OpKind::kTopK:
        out << " " << op.k << " by " << op.order_column
            << (op.descending ? " desc" : " asc");
        break;
      case OpKind::kHashJoin:
        out << " " << to_string(op.build_dataset) << " on " << op.probe_column
            << " eq " << op.build_column;
        break;
    }
    out << ";\n";
  }
  out << "}";
  return out.str();
}

Result<PlanSchema> validate(const Plan& plan) {
  if (plan.ops.empty()) {
    return invalid(spec::SourceLoc{1, 1}, "plan '" + plan.name + "' is empty");
  }
  if (plan.ops.front().kind != OpKind::kScan) {
    return invalid(plan.ops.front().loc, "plan must start with a scan");
  }

  PlanSchema schema;
  std::vector<std::string>& columns = schema.output_columns;
  columns = dataset_columns(plan.ops.front().dataset);

  for (std::size_t i = 1; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    switch (op.kind) {
      case OpKind::kScan:
        return invalid(op.loc, "scan is only valid as the first operator");
      case OpKind::kFilter: {
        if (op.predicates.empty()) {
          return invalid(op.loc, "filter needs at least one predicate");
        }
        for (const auto& pred : op.predicates) {
          if (pred.column == "title") {
            return invalid(pred.loc,
                           "'title' is an opaque string payload, not a "
                           "filterable column");
          }
          if (!has_column(columns, pred.column)) {
            return invalid(pred.loc,
                           "unknown column '" + pred.column + "' in filter");
          }
          if (!known_operator(pred.op)) {
            return invalid(pred.loc, "unknown comparison operator '" +
                                         pred.op +
                                         "' (use ne/eq/gt/ge/lt/le)");
          }
        }
        break;
      }
      case OpKind::kProject: {
        if (op.columns.empty()) {
          return invalid(op.loc, "project needs at least one column");
        }
        for (const auto& name : op.columns) {
          if (!has_column(columns, name)) {
            return invalid(op.loc,
                           "unknown column '" + name + "' in project");
          }
        }
        columns = op.columns;
        break;
      }
      case OpKind::kAggregate: {
        if (schema.has_aggregate) {
          return invalid(op.loc, "plan may aggregate only once");
        }
        if (op.agg_op == hwgen::AggOp::kNone) {
          return invalid(op.loc, "aggregate needs count/sum/min/max");
        }
        if (op.agg_op != hwgen::AggOp::kCount) {
          if (op.agg_column.empty()) {
            return invalid(op.loc, "aggregate op needs a column");
          }
          if (!has_column(columns, op.agg_column)) {
            return invalid(op.loc, "unknown column '" + op.agg_column +
                                       "' in aggregate");
          }
        }
        std::string out_name(hwgen::to_string(op.agg_op));
        if (!op.agg_column.empty()) out_name += "_" + op.agg_column;
        if (op.group_column.empty()) {
          columns = {out_name};
        } else {
          if (!has_column(columns, op.group_column)) {
            return invalid(op.loc, "unknown group column '" +
                                       op.group_column + "'");
          }
          columns = {op.group_column, out_name};
        }
        schema.aggregate_column = out_name;
        schema.has_aggregate = true;
        break;
      }
      case OpKind::kTopK: {
        if (op.k == 0) return invalid(op.loc, "topk needs k >= 1");
        if (!has_column(columns, op.order_column)) {
          return invalid(op.loc, "unknown column '" + op.order_column +
                                     "' in topk");
        }
        schema.has_topk = true;
        break;
      }
      case OpKind::kHashJoin: {
        if (schema.has_join) {
          return invalid(op.loc, "plan may join only once");
        }
        if (schema.has_aggregate) {
          return invalid(op.loc, "join must precede the aggregate");
        }
        if (!has_column(columns, op.probe_column)) {
          return invalid(op.loc, "unknown probe column '" + op.probe_column +
                                     "' in join");
        }
        const auto& build = dataset_columns(op.build_dataset);
        if (!has_column(build, op.build_column)) {
          return invalid(op.loc, "unknown build column '" + op.build_column +
                                     "' on " +
                                     std::string(to_string(op.build_dataset)));
        }
        const std::string prefix(to_string(op.build_dataset));
        for (const auto& name : build) columns.push_back(prefix + "." + name);
        schema.has_join = true;
        break;
      }
    }
  }
  return schema;
}

std::vector<std::uint8_t> ResultTable::to_bytes() const {
  std::vector<std::uint8_t> out;
  put_u64(out, columns.size());
  for (const auto& name : columns) {
    put_u64(out, name.size());
    out.insert(out.end(), name.begin(), name.end());
  }
  put_u64(out, rows.size());
  for (const auto& row : rows) {
    for (const std::uint64_t cell : row) put_u64(out, cell);
  }
  return out;
}

std::uint32_t ResultTable::fingerprint() const {
  const auto bytes = to_bytes();
  return support::crc32c(std::span<const std::uint8_t>(bytes));
}

std::string ResultTable::dump(std::size_t max_rows) const {
  std::ostringstream out;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    out << (i == 0 ? "" : "  ") << columns[i];
  }
  out << "\n";
  const std::size_t shown = std::min(rows.size(), max_rows);
  for (std::size_t r = 0; r < shown; ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      out << (c == 0 ? "" : "  ") << rows[r][c];
    }
    out << "\n";
  }
  if (shown < rows.size()) {
    out << "... (" << rows.size() - shown << " more rows)\n";
  }
  return out.str();
}

}  // namespace ndpgen::query
