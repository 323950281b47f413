#include "query/reference_executor.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "platform/timing.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::query {

namespace {

// Deliberately independent of executor.cpp: the reference duplicates the
// operator semantics in the simplest possible form so a bug in the
// compiled path cannot hide in shared helper code.

std::size_t index_of(const std::vector<std::string>& columns,
                     const std::string& name) {
  const auto it = std::find(columns.begin(), columns.end(), name);
  NDPGEN_CHECK(it != columns.end(),
               "reference executor: unknown column '" + name + "'");
  return static_cast<std::size_t>(it - columns.begin());
}

bool compare(std::uint64_t lhs, const std::string& op, std::uint64_t rhs) {
  if (op == "ne") return lhs != rhs;
  if (op == "eq") return lhs == rhs;
  if (op == "gt") return lhs > rhs;
  if (op == "ge") return lhs >= rhs;
  if (op == "lt") return lhs < rhs;
  if (op == "le") return lhs <= rhs;
  raise(ErrorKind::kInternal, "unknown comparison operator '" + op + "'");
}

struct Table {
  std::vector<std::string> columns;
  std::vector<Row> rows;
};

Table scan_dataset(Dataset dataset, std::uint64_t scale_divisor,
                   ReferenceStats* stats) {
  workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = scale_divisor});
  Table table;
  table.columns = dataset_columns(dataset);
  std::uint64_t bytes = 0;
  if (dataset == Dataset::kPapers) {
    table.rows.reserve(generator.paper_count());
    for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
      const auto paper = generator.paper(i);
      table.rows.push_back(Row{paper.id, paper.year, paper.venue_id,
                               paper.n_refs, paper.n_cited});
    }
    bytes = generator.paper_count() * workload::PaperRecord::kBytes;
  } else {
    table.rows.reserve(generator.ref_count());
    for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
      const auto ref = generator.ref(i);
      // The generator may emit duplicate (src, dst) edges; the KV store
      // keys refs by exactly that pair, so a stored scan sees one record
      // per key. Mirror the dedup (edges are sorted, duplicates adjacent).
      if (!table.rows.empty() && table.rows.back()[0] == ref.src &&
          table.rows.back()[1] == ref.dst) {
        continue;
      }
      table.rows.push_back(Row{ref.src, ref.dst});
    }
    bytes = generator.ref_count() * workload::RefRecord::kBytes;
  }
  if (stats != nullptr) {
    stats->rows_scanned += table.rows.size();
    // Classical path: every raw record crosses NVMe at payload rate,
    // then the host decodes it.
    const platform::TimingConfig timing;
    stats->transfer_ns += static_cast<std::uint64_t>(
        static_cast<double>(bytes) * 1000.0 / timing.nvme_payload_mbps);
    stats->host_ns += kHostDecodeNsPerRow * table.rows.size();
  }
  return table;
}

std::uint64_t ref_ceil_log2(std::uint64_t n) {
  std::uint64_t bits = 1;
  while ((std::uint64_t{1} << bits) < n) ++bits;
  return bits;
}

/// The aggregate fold over unsigned columns (every pub-graph column),
/// written out apart from hwgen::AggregateFold, which the device and the
/// compiled tail share: count/sum start at 0, min at ~0, max at 0; empty
/// sets keep the seed.
struct Fold {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = ~std::uint64_t{0};
  std::uint64_t max = 0;

  void add(std::uint64_t value) {
    ++count;
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
  [[nodiscard]] std::uint64_t get(hwgen::AggOp op) const {
    switch (op) {
      case hwgen::AggOp::kCount: return count;
      case hwgen::AggOp::kSum: return sum;
      case hwgen::AggOp::kMin: return min;
      case hwgen::AggOp::kMax: return max;
      case hwgen::AggOp::kNone: break;
    }
    return 0;
  }
};

}  // namespace

ResultTable reference_execute(const Plan& plan, std::uint64_t scale_divisor,
                              ReferenceStats* stats) {
  // Re-validate defensively: callers normally hold a parsed (and thus
  // validated) plan, but hand-built plans go through here in tests.
  auto checked = validate(plan);
  checked.value_or_raise();

  ReferenceStats local;
  Table table = scan_dataset(plan.scan().dataset, scale_divisor, &local);

  for (std::size_t i = 1; i < plan.ops.size(); ++i) {
    const PlanOp& op = plan.ops[i];
    local.host_ns += kHostOpDispatchNs;
    switch (op.kind) {
      case OpKind::kScan:
        break;  // validate() rejected this already.
      case OpKind::kFilter: {
        local.host_ns += kHostFilterNsPerRowPred * table.rows.size() *
                         op.predicates.size();
        std::vector<Row> kept;
        for (const Row& row : table.rows) {
          bool match = true;
          for (const auto& pred : op.predicates) {
            if (!compare(row[index_of(table.columns, pred.column)], pred.op,
                         pred.value)) {
              match = false;
              break;
            }
          }
          if (match) kept.push_back(row);
        }
        table.rows = std::move(kept);
        break;
      }
      case OpKind::kProject: {
        local.host_ns += kHostProjectNsPerRow * table.rows.size();
        std::vector<Row> projected;
        projected.reserve(table.rows.size());
        for (const Row& row : table.rows) {
          Row out;
          for (const auto& name : op.columns) {
            out.push_back(row[index_of(table.columns, name)]);
          }
          projected.push_back(std::move(out));
        }
        table.rows = std::move(projected);
        table.columns = op.columns;
        break;
      }
      case OpKind::kHashJoin: {
        Table build =
            scan_dataset(op.build_dataset, scale_divisor, &local);
        const std::size_t probe_index =
            index_of(table.columns, op.probe_column);
        const std::size_t build_index =
            index_of(build.columns, op.build_column);
        local.host_ns += kHostJoinBuildNsPerRow * build.rows.size() +
                         kHostJoinProbeNsPerRow * table.rows.size();
        // Naive nested loop: probe order outer, build order inner —
        // exactly the emission order the compiled hash join preserves.
        std::vector<Row> joined;
        for (const Row& row : table.rows) {
          for (const Row& other : build.rows) {
            if (row[probe_index] != other[build_index]) continue;
            Row out = row;
            out.insert(out.end(), other.begin(), other.end());
            joined.push_back(std::move(out));
          }
        }
        local.host_ns += kHostJoinEmitNsPerRow * joined.size();
        table.rows = std::move(joined);
        const std::string prefix(to_string(op.build_dataset));
        for (const auto& name : build.columns) {
          table.columns.push_back(prefix + "." + name);
        }
        break;
      }
      case OpKind::kAggregate: {
        local.host_ns += kHostGroupNsPerRow * table.rows.size();
        const bool has_value = !op.agg_column.empty();
        const std::size_t value_index =
            has_value ? index_of(table.columns, op.agg_column) : 0;
        std::string out_name(hwgen::to_string(op.agg_op));
        if (has_value) out_name += "_" + op.agg_column;
        if (op.group_column.empty()) {
          Fold fold;
          for (const Row& row : table.rows) fold.add(row[value_index]);
          table.rows = {Row{fold.get(op.agg_op)}};
          table.columns = {out_name};
        } else {
          const std::size_t group_index =
              index_of(table.columns, op.group_column);
          std::map<std::uint64_t, Fold> groups;
          for (const Row& row : table.rows) {
            groups[row[group_index]].add(row[value_index]);
          }
          std::vector<Row> folded;
          folded.reserve(groups.size());
          for (const auto& [key, fold] : groups) {
            folded.push_back(Row{key, fold.get(op.agg_op)});
          }
          table.rows = std::move(folded);
          table.columns = {op.group_column, out_name};
        }
        break;
      }
      case OpKind::kTopK: {
        const std::size_t order_index =
            index_of(table.columns, op.order_column);
        local.host_ns +=
            kHostSortNsPerRowLog * table.rows.size() *
            ref_ceil_log2(std::max<std::uint64_t>(table.rows.size(), 2));
        std::sort(table.rows.begin(), table.rows.end(),
                  [&](const Row& a, const Row& b) {
                    if (a[order_index] != b[order_index]) {
                      return op.descending ? a[order_index] > b[order_index]
                                           : a[order_index] < b[order_index];
                    }
                    return a < b;
                  });
        if (table.rows.size() > op.k) table.rows.resize(op.k);
        break;
      }
    }
  }

  local.rows_out = table.rows.size();
  if (stats != nullptr) *stats = local;
  ResultTable out;
  out.columns = std::move(table.columns);
  out.rows = std::move(table.rows);
  return out;
}

}  // namespace ndpgen::query
