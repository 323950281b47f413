#include "query/reference_executor.hpp"

#include <algorithm>
#include <map>

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

/// A row-major table: columns.size() cells per row, one flat vector of
/// cells, so a scanned record costs its cells and no heap row of its own.
struct Table {
  std::vector<std::string> columns;
  std::vector<std::uint64_t> cells;

  [[nodiscard]] std::size_t width() const { return columns.size(); }
  [[nodiscard]] std::size_t rows() const {
    return columns.empty() ? 0 : cells.size() / columns.size();
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t index) const {
    return cells.data() + index * width();
  }
  [[nodiscard]] std::uint64_t at(std::size_t index, std::size_t column) const {
    return cells[index * width() + column];
  }
  /// Appends the cells of row `index` of `from`.
  void append(const Table& from, std::size_t index) {
    cells.insert(cells.end(), from.row(index), from.row(index) + from.width());
  }
};

Table scan_dataset(Dataset dataset, std::uint64_t scale_divisor,
                   ReferenceStats* stats) {
  workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = scale_divisor});
  Table table;
  table.columns = dataset_columns(dataset);
  std::uint64_t bytes = 0;
  if (dataset == Dataset::kPapers) {
    table.cells.reserve(generator.paper_count() * table.width());
    for (std::uint64_t i = 0; i < generator.paper_count(); ++i) {
      const auto paper = generator.paper(i);
      table.cells.insert(table.cells.end(),
                         {paper.id, paper.year, paper.venue_id, paper.n_refs,
                          paper.n_cited});
    }
    bytes = generator.paper_count() * workload::PaperRecord::kBytes;
  } else {
    table.cells.reserve(generator.ref_count() * table.width());
    for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
      const auto ref = generator.ref(i);
      // The generator may emit duplicate (src, dst) edges; the KV store
      // keys refs by exactly that pair, so a stored scan sees one record
      // per key. Mirror the dedup (edges are sorted, duplicates adjacent).
      const std::size_t rows = table.rows();
      if (rows > 0 && table.at(rows - 1, 0) == ref.src &&
          table.at(rows - 1, 1) == ref.dst) {
        continue;
      }
      table.cells.insert(table.cells.end(), {ref.src, ref.dst});
    }
    bytes = generator.ref_count() * workload::RefRecord::kBytes;
  }
  if (stats != nullptr) {
    stats->rows_scanned += table.rows();
    // Classical path: every raw record crosses NVMe at payload rate,
    // then the host decodes it.
    const platform::TimingConfig timing;
    stats->transfer_ns += static_cast<std::uint64_t>(
        static_cast<double>(bytes) * 1000.0 / timing.nvme_payload_mbps);
    stats->host_ns += kHostDecodeNsPerRow * table.rows();
  }
  return table;
}

/// Row indices of `table` stably sorted by column `column`.
std::vector<std::size_t> stable_key_order(const Table& table,
                                          std::size_t column) {
  std::vector<std::size_t> order(table.rows());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return table.at(a, column) < table.at(b, column);
                   });
  return order;
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
        local.host_ns += kHostFilterNsPerRowPred * table.rows() *
                         op.predicates.size();
        Table kept;
        kept.columns = table.columns;
        for (std::size_t r = 0; r < table.rows(); ++r) {
          bool match = true;
          for (const auto& pred : op.predicates) {
            if (!compare(table.at(r, index_of(table.columns, pred.column)),
                         pred.op, pred.value)) {
              match = false;
              break;
            }
          }
          if (match) kept.append(table, r);
        }
        table = std::move(kept);
        break;
      }
      case OpKind::kProject: {
        local.host_ns += kHostProjectNsPerRow * table.rows();
        Table projected;
        projected.columns = op.columns;
        projected.cells.reserve(table.rows() * projected.width());
        for (std::size_t r = 0; r < table.rows(); ++r) {
          for (const auto& name : op.columns) {
            projected.cells.push_back(
                table.at(r, index_of(table.columns, name)));
          }
        }
        table = std::move(projected);
        break;
      }
      case OpKind::kHashJoin: {
        Table build =
            scan_dataset(op.build_dataset, scale_divisor, &local);
        const std::size_t probe_index =
            index_of(table.columns, op.probe_column);
        const std::size_t build_index =
            index_of(build.columns, op.build_column);
        local.host_ns += kHostJoinBuildNsPerRow * build.rows() +
                         kHostJoinProbeNsPerRow * table.rows();
        // Sort-merge: both sides stably ordered by key (ties keep row
        // order), merged into each probe row's run of build rows, then
        // emitted in probe order — probe order, then build order within a
        // key, the order the compiled join keeps.
        const std::vector<std::size_t> build_order =
            stable_key_order(build, build_index);
        const std::vector<std::size_t> probe_order =
            stable_key_order(table, probe_index);
        const auto build_key = [&](std::size_t at) {
          return build.at(build_order[at], build_index);
        };
        std::vector<std::pair<std::size_t, std::size_t>> runs(table.rows());
        std::size_t lo = 0;
        std::size_t hi = 0;
        std::size_t joined_rows = 0;
        for (const std::size_t p : probe_order) {
          const std::uint64_t key = table.at(p, probe_index);
          while (lo < build_order.size() && build_key(lo) < key) ++lo;
          hi = std::max(hi, lo);
          while (hi < build_order.size() && build_key(hi) == key) ++hi;
          runs[p] = {lo, hi};
          joined_rows += hi - lo;
        }
        Table joined;
        joined.columns = table.columns;
        const std::string prefix(to_string(op.build_dataset));
        for (const auto& name : build.columns) {
          joined.columns.push_back(prefix + "." + name);
        }
        joined.cells.reserve(joined_rows * joined.width());
        for (std::size_t p = 0; p < table.rows(); ++p) {
          for (std::size_t at = runs[p].first; at < runs[p].second; ++at) {
            joined.append(table, p);
            joined.append(build, build_order[at]);
          }
        }
        local.host_ns += kHostJoinEmitNsPerRow * joined.rows();
        table = std::move(joined);
        break;
      }
      case OpKind::kAggregate: {
        local.host_ns += kHostGroupNsPerRow * table.rows();
        const bool has_value = !op.agg_column.empty();
        const std::size_t value_index =
            has_value ? index_of(table.columns, op.agg_column) : 0;
        std::string out_name(hwgen::to_string(op.agg_op));
        if (has_value) out_name += "_" + op.agg_column;
        Table folded;
        if (op.group_column.empty()) {
          Fold fold;
          for (std::size_t r = 0; r < table.rows(); ++r) {
            fold.add(table.at(r, value_index));
          }
          folded.columns = {out_name};
          folded.cells = {fold.get(op.agg_op)};
        } else {
          const std::size_t group_index =
              index_of(table.columns, op.group_column);
          std::map<std::uint64_t, Fold> groups;
          for (std::size_t r = 0; r < table.rows(); ++r) {
            groups[table.at(r, group_index)].add(table.at(r, value_index));
          }
          folded.columns = {op.group_column, out_name};
          folded.cells.reserve(2 * groups.size());
          for (const auto& [key, fold] : groups) {
            folded.cells.insert(folded.cells.end(), {key, fold.get(op.agg_op)});
          }
        }
        table = std::move(folded);
        break;
      }
      case OpKind::kTopK: {
        const std::size_t order_index =
            index_of(table.columns, op.order_column);
        local.host_ns +=
            kHostSortNsPerRowLog * table.rows() *
            ref_ceil_log2(std::max<std::uint64_t>(table.rows(), 2));
        std::vector<std::size_t> order(table.rows());
        for (std::size_t r = 0; r < order.size(); ++r) order[r] = r;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                    const std::uint64_t x = table.at(a, order_index);
                    const std::uint64_t y = table.at(b, order_index);
                    if (x != y) return op.descending ? x > y : x < y;
                    return std::lexicographical_compare(
                        table.row(a), table.row(a) + table.width(),
                        table.row(b), table.row(b) + table.width());
                  });
        if (order.size() > op.k) order.resize(op.k);
        Table top;
        top.columns = table.columns;
        top.cells.reserve(order.size() * top.width());
        for (const std::size_t r : order) top.append(table, r);
        table = std::move(top);
        break;
      }
    }
  }

  local.rows_out = table.rows();
  if (stats != nullptr) *stats = local;
  ResultTable out;
  out.rows.reserve(table.rows());
  for (std::size_t r = 0; r < table.rows(); ++r) {
    out.rows.emplace_back(table.row(r), table.row(r) + table.width());
  }
  out.columns = std::move(table.columns);
  return out;
}

}  // namespace ndpgen::query
