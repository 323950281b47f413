#include "query/executor.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "core/testbed.hpp"

namespace ndpgen::query {

namespace {

std::uint64_t ceil_log2(std::uint64_t n) {
  std::uint64_t bits = 1;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

std::size_t column_index(const std::vector<std::string>& columns,
                         const std::string& name) {
  const auto it = std::find(columns.begin(), columns.end(), name);
  NDPGEN_CHECK(it != columns.end(),
               "tail operator references column '" + name +
                   "' missing from the working schema");
  return static_cast<std::size_t>(it - columns.begin());
}

/// Total-order row comparator for top-k: primary on `order` (descending
/// or ascending), full-row lexicographic ascending tiebreak — no two
/// distinct rows ever compare equal, so the sort is deterministic.
struct TopKLess {
  std::size_t order;
  bool descending;

  bool operator()(const Row& a, const Row& b) const {
    if (a[order] != b[order]) {
      return descending ? a[order] > b[order] : a[order] < b[order];
    }
    return a < b;
  }
};

std::vector<ndp::FilterPredicate> to_filter_predicates(
    const std::vector<PlanPredicate>& predicates) {
  std::vector<ndp::FilterPredicate> out;
  out.reserve(predicates.size());
  for (const auto& pred : predicates) {
    out.push_back(ndp::FilterPredicate{pred.column, pred.op, pred.value});
  }
  return out;
}

/// Drops the rows failing any of `predicates` (a conjunction over the
/// named columns), charging the host filter cost.
void filter_rows(std::vector<Row>& rows,
                 const std::vector<std::string>& columns,
                 const std::vector<analysis::PlanField>& fields,
                 const std::vector<PlanPredicate>& predicates,
                 std::uint64_t* host_ns) {
  std::vector<std::pair<std::size_t, RowPredicate>> bound;
  for (const auto& pred : predicates) {
    const std::size_t index = column_index(columns, pred.column);
    bound.emplace_back(index, RowPredicate(pred, fields[index]));
  }
  *host_ns += kHostFilterNsPerRowPred * rows.size() * bound.size();
  std::erase_if(rows, [&](const Row& row) {
    for (const auto& [index, pred] : bound) {
      if (!pred.passes(row[index])) return true;
    }
    return false;
  });
}

struct LeafOutput {
  std::vector<std::string> columns;
  std::vector<analysis::PlanField> fields;  ///< One per column.
  std::vector<Row> rows;
  LeafRunStats stats;
  /// Set for the on-device aggregate fold: the leaf IS the whole plan.
  std::optional<ResultTable> direct;
};

LeafOutput run_leaf(const LeafPipeline& leaf, const QueryExecOptions& options,
                    const std::string& aggregate_column,
                    std::uint64_t* host_ns) {
  LeafOutput out;
  out.columns = leaf.columns;
  out.stats.dataset = leaf.dataset;
  out.stats.offloaded = leaf.offloaded;

  core::TestbedConfig config;
  config.dataset = leaf.dataset;
  config.scale_divisor = options.scale_divisor;
  config.cosmos.fault = options.fault;
  config.spec_source = leaf.spec_source;
  config.parser_name = leaf.parser_name;
  config.executor.mode = leaf.offloaded ? ndp::ExecMode::kHardware
                                        : ndp::ExecMode::kHostClassic;
  config.executor.num_pes = options.pes;
  config.executor.pe_threads = options.threads;
  config.executor.sim_mode = options.sim_mode;
  core::Testbed testbed(std::move(config));
  const core::ParserArtifacts& artifacts = testbed.artifacts();
  ndp::HybridExecutor& executor = testbed.executor();
  out.stats.records_loaded = testbed.records_loaded();
  if (leaf.offloaded) {
    out.stats.hw_filter_stages = artifacts.design.filter_stage_count();
  }
  const auto predicates = to_filter_predicates(leaf.pushed);

  if (leaf.hw_aggregate) {
    const std::string field =
        leaf.agg_column.empty() ? leaf.columns.front() : leaf.agg_column;
    const auto agg = executor.aggregate(predicates, leaf.agg_op, field);
    out.stats.blocks = agg.blocks;
    out.stats.tuples_scanned = agg.tuples_scanned;
    out.stats.elapsed = agg.elapsed;
    out.stats.rows_out = 1;
    ResultTable table;
    table.columns = {aggregate_column};
    table.rows = {Row{agg.as_u64()}};
    out.direct = std::move(table);
    return out;
  }

  std::vector<std::vector<std::uint8_t>> records;
  const auto stats = executor.scan(predicates, &records);
  out.stats.blocks = stats.blocks;
  out.stats.tuples_scanned = stats.tuples_scanned;
  out.stats.elapsed = stats.elapsed;
  out.stats.blocks_degraded_to_software = stats.blocks_degraded_to_software;
  out.stats.uncorrectable_blocks = stats.uncorrectable_blocks;

  // Decode device records into rows through a plan over the generated
  // output layout's columns.
  const auto decode = analysis::RecordPlan::select(artifacts.analyzed.output,
                                                   leaf.columns);
  out.fields = decode.fields();
  out.rows.reserve(records.size());
  for (const auto& record : records) {
    Row row(leaf.columns.size());
    for (std::uint32_t i = 0; i < row.size(); ++i) {
      row[i] = decode.extract(record, i);
    }
    out.rows.push_back(std::move(row));
  }
  *host_ns += kHostDecodeNsPerRow * out.rows.size();

  // Residual predicates past the HW cut run here, on the output rows.
  if (!leaf.residual.empty()) {
    filter_rows(out.rows, out.columns, out.fields, leaf.residual, host_ns);
  }
  out.stats.rows_out = out.rows.size();
  return out;
}

}  // namespace

RowPredicate::RowPredicate(const PlanPredicate& predicate,
                           const analysis::PlanField& column)
    : rhs_{predicate.value, column.interp, column.width_bits} {
  static const hwgen::OperatorSet kStandard = hwgen::OperatorSet::standard();
  op_ = kStandard.find(predicate.op);
  if (op_ == nullptr) {
    raise(ErrorKind::kInternal,
          "unknown comparison operator '" + predicate.op + "'");
  }
}

ResultTable execute_plan(const CompiledPlan& plan,
                         const QueryExecOptions& options, QueryStats* stats) {
  QueryStats local;
  std::uint64_t host_ns = 0;

  LeafOutput probe = run_leaf(plan.probe, options,
                              plan.optimized.schema.aggregate_column,
                              &host_ns);
  local.device_ns += probe.stats.elapsed;
  local.leaves.push_back(probe.stats);

  if (probe.direct) {
    // Whole plan folded on-device.
    local.host_ns = host_ns;
    local.rows_out = probe.direct->rows.size();
    if (stats != nullptr) *stats = std::move(local);
    return *std::move(probe.direct);
  }

  std::optional<LeafOutput> build;
  if (plan.build) {
    build = run_leaf(*plan.build, options,
                     plan.optimized.schema.aggregate_column, &host_ns);
    local.device_ns += build->stats.elapsed;
    local.leaves.push_back(build->stats);
  }

  std::vector<std::string> columns = std::move(probe.columns);
  std::vector<analysis::PlanField> fields = std::move(probe.fields);
  std::vector<Row> rows = std::move(probe.rows);

  for (const PlanOp& op : plan.optimized.tail) {
    host_ns += kHostOpDispatchNs;
    switch (op.kind) {
      case OpKind::kScan:
        raise(ErrorKind::kInternal, "scan cannot appear in the SW tail");
      case OpKind::kFilter:
        filter_rows(rows, columns, fields, op.predicates, &host_ns);
        break;
      case OpKind::kProject: {
        std::vector<std::size_t> indices;
        std::vector<analysis::PlanField> projected_fields;
        for (const auto& name : op.columns) {
          indices.push_back(column_index(columns, name));
          projected_fields.push_back(fields[indices.back()]);
        }
        host_ns += kHostProjectNsPerRow * rows.size();
        for (auto& row : rows) {
          Row projected;
          projected.reserve(indices.size());
          for (const std::size_t index : indices) {
            projected.push_back(row[index]);
          }
          row = std::move(projected);
        }
        columns = op.columns;
        fields = std::move(projected_fields);
        break;
      }
      case OpKind::kHashJoin: {
        NDPGEN_CHECK(build.has_value(), "join tail without a build leaf");
        const std::size_t probe_index =
            column_index(columns, op.probe_column);
        const std::size_t build_index =
            column_index(build->columns, op.build_column);
        // Buckets keyed on the probe side (usually the far smaller one),
        // filled by walking the build rows in order: probe order x build
        // order makes the multi-match emission order deterministic. The
        // cost model still charges a classic build + probe.
        std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
        table.reserve(rows.size());
        for (const Row& row : rows) table.try_emplace(row[probe_index]);
        const auto build_count =
            static_cast<std::uint32_t>(build->rows.size());
        for (std::uint32_t i = 0; i < build_count; ++i) {
          const auto it = table.find(build->rows[i][build_index]);
          if (it != table.end()) it->second.push_back(i);
        }
        host_ns += kHostJoinBuildNsPerRow * build->rows.size() +
                   kHostJoinProbeNsPerRow * rows.size();
        std::vector<Row> joined;
        for (const Row& row : rows) {
          for (const std::uint32_t i : table.find(row[probe_index])->second) {
            Row out = row;
            out.insert(out.end(), build->rows[i].begin(),
                       build->rows[i].end());
            joined.push_back(std::move(out));
          }
        }
        host_ns += kHostJoinEmitNsPerRow * joined.size();
        rows = std::move(joined);
        const std::string prefix(to_string(op.build_dataset));
        for (const auto& name : build->columns) {
          columns.push_back(prefix + "." + name);
        }
        fields.insert(fields.end(), build->fields.begin(),
                      build->fields.end());
        break;
      }
      case OpKind::kAggregate: {
        const std::size_t value_index =
            op.agg_column.empty() ? 0 : column_index(columns, op.agg_column);
        std::string out_name(hwgen::to_string(op.agg_op));
        if (!op.agg_column.empty()) out_name += "_" + op.agg_column;
        host_ns += kHostGroupNsPerRow * rows.size();
        const hwgen::AggregateFold fold(op.agg_op, fields[value_index]);
        const analysis::PlanField result{.width_bits = 64,
                                         .interp = fold.result_interp()};
        if (op.group_column.empty()) {
          // Empty input keeps the fold's seed, like the HW unit.
          std::uint64_t acc = fold.seed();
          for (const Row& row : rows) {
            acc = fold.combine(acc, fold.widen(row[value_index]));
          }
          rows = {Row{acc}};
          columns = {out_name};
          fields = {result};
        } else {
          const std::size_t group_index =
              column_index(columns, op.group_column);
          std::map<std::uint64_t, std::uint64_t> groups;  // Key-sorted out.
          for (const Row& row : rows) {
            std::uint64_t& acc =
                groups.try_emplace(row[group_index], fold.seed()).first->second;
            acc = fold.combine(acc, fold.widen(row[value_index]));
          }
          std::vector<Row> folded;
          folded.reserve(groups.size());
          for (const auto& [key, acc] : groups) folded.push_back(Row{key, acc});
          rows = std::move(folded);
          columns = {op.group_column, out_name};
          fields = {fields[group_index], result};
        }
        break;
      }
      case OpKind::kTopK: {
        const std::size_t order_index =
            column_index(columns, op.order_column);
        host_ns += kHostSortNsPerRowLog * rows.size() *
                   ceil_log2(std::max<std::uint64_t>(rows.size(), 2));
        std::sort(rows.begin(), rows.end(),
                  TopKLess{order_index, op.descending});
        if (rows.size() > op.k) rows.resize(op.k);
        break;
      }
    }
  }

  ResultTable table;
  table.columns = std::move(columns);
  table.rows = std::move(rows);
  local.host_ns = host_ns;
  local.rows_out = table.rows.size();
  if (stats != nullptr) *stats = std::move(local);
  return table;
}

}  // namespace ndpgen::query
