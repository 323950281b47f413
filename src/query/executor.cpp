#include "query/executor.hpp"

#include <algorithm>
#include <numeric>

#include "core/testbed.hpp"
#include "support/bytes.hpp"

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

/// A leaf's columns bound once to fixed-width loads from its device
/// records: each column reads its field at its byte offset, and the
/// offsets and widths are checked against the record size here, not per
/// record.
class LeafDecoder {
 public:
  explicit LeafDecoder(const analysis::RecordPlan& plan)
      : record_bytes_(plan.input_bytes()) {
    using support::load_le;
    static constexpr Load kLoads[] = {load_le<1>, load_le<2>, load_le<3>,
                                      load_le<4>, load_le<5>, load_le<6>,
                                      load_le<7>, load_le<8>};
    for (const analysis::PlanField& field : plan.fields()) {
      const std::uint32_t offset = field.storage_offset_bits / 8;
      const std::uint32_t bytes = field.width_bits / 8;
      NDPGEN_CHECK(bytes >= 1 && bytes <= 8 &&
                       offset + bytes <= record_bytes_,
                   "leaf column outside its device record");
      columns_.push_back(Column{offset, kLoads[bytes - 1]});
    }
  }

  /// Appends `record`'s row to `cells`.
  void append(std::span<const std::uint8_t> record,
              std::vector<std::uint64_t>& cells) const {
    NDPGEN_CHECK_ARG(record.size() == record_bytes_,
                     "record size does not match the layout");
    for (const Column& column : columns_) {
      cells.push_back(column.load(record.data() + column.offset));
    }
  }

 private:
  using Load = std::uint64_t (*)(const std::uint8_t*) noexcept;
  struct Column {
    std::uint32_t offset;
    Load load;
  };
  std::uint32_t record_bytes_;
  std::vector<Column> columns_;
};

/// A row-major table: `width` cells per row, rows back to back. The tail
/// works on these and builds ResultTable::rows only at the end.
struct FlatRows {
  std::size_t width = 0;
  std::vector<std::uint64_t> cells;

  [[nodiscard]] std::size_t size() const noexcept {
    return width == 0 ? 0 : cells.size() / width;
  }
  [[nodiscard]] const std::uint64_t* row(std::size_t index) const noexcept {
    return cells.data() + index * width;
  }
};

/// An open-addressing index from 64-bit keys to dense slots numbered in
/// first-appearance order: linear probing over a power-of-two table kept
/// at most a quarter full, so most lookups, hits or misses, end at their
/// first entry. Keys are placed by Fibonacci hashing (the top bits of
/// key x 2^64/phi), which spreads runs of ids evenly.
class KeySlots {
 public:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// Sized for `expected` keys without a rehash.
  explicit KeySlots(std::size_t expected) { rehash(4 * expected); }

  /// The slot of `key`, numbered size() when it is new.
  std::uint32_t insert(std::uint64_t key) {
    if (4 * (keys_.size() + 1) > table_.size()) rehash(2 * table_.size());
    Entry& entry = table_[index_of(key)];
    if (entry.slot == kNoSlot) {
      entry = Entry{key, static_cast<std::uint32_t>(keys_.size())};
      keys_.push_back(key);
    }
    return entry.slot;
  }

  /// The slot of `key`, or kNoSlot.
  [[nodiscard]] std::uint32_t find(std::uint64_t key) const {
    return table_[index_of(key)].slot;
  }

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  /// The keys in slot order.
  [[nodiscard]] const std::vector<std::uint64_t>& keys() const noexcept {
    return keys_;
  }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t slot = kNoSlot;
  };

  /// The index of the entry holding `key`, or of the empty one where it
  /// would go.
  [[nodiscard]] std::size_t index_of(std::uint64_t key) const {
    std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
    while (table_[i].slot != kNoSlot && table_[i].key != key) {
      i = (i + 1) & (table_.size() - 1);
    }
    return i;
  }

  void rehash(std::size_t capacity) {
    unsigned bits = 4;
    while ((std::size_t{1} << bits) < capacity) ++bits;
    table_.assign(std::size_t{1} << bits, Entry{});
    shift_ = 64 - bits;
    for (std::uint32_t slot = 0; slot < keys_.size(); ++slot) {
      table_[index_of(keys_[slot])] = Entry{keys_[slot], slot};
    }
  }

  std::vector<Entry> table_;
  unsigned shift_ = 0;  ///< 64 - log2(table_.size()).
  std::vector<std::uint64_t> keys_;
};

/// Total-order comparator of row indices for top-k: primary on `order`
/// (descending or ascending), full-row lexicographic ascending tiebreak —
/// no two distinct rows ever compare equal, so the sort is deterministic.
struct TopKLess {
  const FlatRows& rows;
  std::size_t order;
  bool descending;

  bool operator()(std::size_t a_index, std::size_t b_index) const {
    const std::uint64_t* a = rows.row(a_index);
    const std::uint64_t* b = rows.row(b_index);
    if (a[order] != b[order]) {
      return descending ? a[order] > b[order] : a[order] < b[order];
    }
    return std::lexicographical_compare(a, a + rows.width, b, b + rows.width);
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
/// named columns) by compacting the table in place, charging the host
/// filter cost.
void filter_rows(FlatRows& rows, const std::vector<std::string>& columns,
                 const std::vector<analysis::PlanField>& fields,
                 const std::vector<PlanPredicate>& predicates,
                 std::uint64_t* host_ns) {
  std::vector<std::pair<std::size_t, RowPredicate>> bound;
  for (const auto& pred : predicates) {
    const std::size_t index = column_index(columns, pred.column);
    bound.emplace_back(index, RowPredicate(pred, fields[index]));
  }
  const std::size_t count = rows.size();
  *host_ns += kHostFilterNsPerRowPred * count * bound.size();
  std::size_t kept = 0;
  for (std::size_t r = 0; r < count; ++r) {
    const std::uint64_t* row = rows.row(r);
    const bool pass =
        std::all_of(bound.begin(), bound.end(), [row](const auto& entry) {
          return entry.second.passes(row[entry.first]);
        });
    if (!pass) continue;
    if (kept != r) {
      std::copy_n(row, rows.width, rows.cells.data() + kept * rows.width);
    }
    ++kept;
  }
  rows.cells.resize(kept * rows.width);
}

/// Joins `probe` with `build` on probe column `probe_index` = build column
/// `build_index`. Each distinct probe key gets a dense slot; the build
/// rows of each slot are counted, laid out by a prefix sum and filled in
/// build order, and the output walks the probe rows in order — so it
/// emits probe order, then build order within a key.
FlatRows join_rows(const FlatRows& probe, std::size_t probe_index,
                   const FlatRows& build, std::size_t build_index) {
  constexpr std::uint32_t kNoSlot = KeySlots::kNoSlot;
  const std::size_t probe_count = probe.size();
  const std::size_t build_count = build.size();
  KeySlots slot_of(probe_count);
  std::vector<std::uint32_t> probe_slot(probe_count);
  for (std::size_t r = 0; r < probe_count; ++r) {
    probe_slot[r] = slot_of.insert(probe.row(r)[probe_index]);
  }
  // After the prefix sum, slot s's matches are first[s] .. first[s + 1].
  std::vector<std::size_t> first(slot_of.size() + 1, 0);
  std::vector<std::uint32_t> build_slot(build_count, kNoSlot);
  for (std::size_t i = 0; i < build_count; ++i) {
    const std::uint32_t slot = slot_of.find(build.row(i)[build_index]);
    if (slot == kNoSlot) continue;
    build_slot[i] = slot;
    ++first[slot + 1];
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<std::uint32_t> matches(first.back());
  std::vector<std::size_t> fill(first.begin(), first.end() - 1);
  for (std::size_t i = 0; i < build_count; ++i) {
    if (build_slot[i] != kNoSlot) {
      matches[fill[build_slot[i]]++] = static_cast<std::uint32_t>(i);
    }
  }

  FlatRows joined;
  joined.width = probe.width + build.width;
  std::size_t joined_count = 0;
  for (const std::uint32_t slot : probe_slot) {
    joined_count += first[slot + 1] - first[slot];
  }
  joined.cells.reserve(joined_count * joined.width);
  for (std::size_t r = 0; r < probe_count; ++r) {
    const std::uint32_t slot = probe_slot[r];
    for (std::size_t m = first[slot]; m < first[slot + 1]; ++m) {
      const std::uint64_t* left = probe.row(r);
      const std::uint64_t* right = build.row(matches[m]);
      joined.cells.insert(joined.cells.end(), left, left + probe.width);
      joined.cells.insert(joined.cells.end(), right, right + build.width);
    }
  }
  return joined;
}

/// Folds column `value_index` per distinct `group_index` key, each group
/// in row order, then orders the groups by key: one (key, accumulator) row
/// per group.
FlatRows group_rows(const FlatRows& rows, std::size_t group_index,
                    std::size_t value_index,
                    const hwgen::AggregateFold& fold) {
  KeySlots group_of(0);
  std::vector<std::uint64_t> accs;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::uint64_t* row = rows.row(r);
    const std::uint32_t group = group_of.insert(row[group_index]);
    if (group == accs.size()) accs.push_back(fold.seed());
    accs[group] = fold.combine(accs[group], fold.widen(row[value_index]));
  }
  const std::vector<std::uint64_t>& keys = group_of.keys();
  std::vector<std::uint32_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&keys](std::uint32_t a, std::uint32_t b) {
              return keys[a] < keys[b];
            });
  FlatRows folded;
  folded.width = 2;
  folded.cells.reserve(2 * order.size());
  for (const std::uint32_t group : order) {
    folded.cells.push_back(keys[group]);
    folded.cells.push_back(accs[group]);
  }
  return folded;
}

/// The `min(k, size)` first rows under TopKLess, in that order.
FlatRows top_rows(const FlatRows& rows, std::size_t order_index,
                  bool descending, std::size_t k) {
  std::vector<std::size_t> order(rows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(order.size(), k);
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    TopKLess{rows, order_index, descending});
  FlatRows top;
  top.width = rows.width;
  top.cells.reserve(keep * top.width);
  for (std::size_t r = 0; r < keep; ++r) {
    top.cells.insert(top.cells.end(), rows.row(order[r]),
                     rows.row(order[r]) + rows.width);
  }
  return top;
}

struct LeafOutput {
  std::vector<std::string> columns;
  std::vector<analysis::PlanField> fields;  ///< One per column.
  FlatRows rows;
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

  // Decode each device record straight into the leaf's rows through a
  // plan over the generated output layout's columns.
  const auto plan = analysis::RecordPlan::select(artifacts.analyzed.output,
                                                 leaf.columns);
  out.fields = plan.fields();
  out.rows.width = leaf.columns.size();
  // Every result is a stored record, so this bounds the table; the pages
  // the rows never reach stay untouched.
  out.rows.cells.reserve(out.stats.records_loaded * out.rows.width);
  const LeafDecoder decode(plan);
  const auto stats = executor.scan(
      predicates, [&out, &decode](std::span<const std::uint8_t> record) {
        decode.append(record, out.rows.cells);
      });
  out.stats.blocks = stats.blocks;
  out.stats.tuples_scanned = stats.tuples_scanned;
  out.stats.elapsed = stats.elapsed;
  out.stats.blocks_degraded_to_software = stats.blocks_degraded_to_software;
  out.stats.uncorrectable_blocks = stats.uncorrectable_blocks;
  *host_ns += kHostDecodeNsPerRow * out.rows.size();

  // Residual predicates past the HW cut run here, on the output rows.
  if (!leaf.residual.empty()) {
    filter_rows(out.rows, out.columns, out.fields, leaf.residual, host_ns);
  }
  out.stats.rows_out = out.rows.size();
  return out;
}

/// The standard set's entry `name` (the set lives as long as the program).
const hwgen::CompareOp& standard_op(const std::string& name) {
  static const hwgen::OperatorSet kStandard = hwgen::OperatorSet::standard();
  const hwgen::CompareOp* op = kStandard.find(name);
  if (op == nullptr) {
    raise(ErrorKind::kInternal, "unknown comparison operator '" + name + "'");
  }
  return *op;
}

}  // namespace

RowPredicate::RowPredicate(const PlanPredicate& predicate,
                           const analysis::PlanField& column)
    : kernel_(standard_op(predicate.op), column, predicate.value) {}

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
  FlatRows rows = std::move(probe.rows);

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
        const std::size_t count = rows.size();
        host_ns += kHostProjectNsPerRow * count;
        FlatRows projected;
        projected.width = indices.size();
        projected.cells.reserve(count * projected.width);
        for (std::size_t r = 0; r < count; ++r) {
          for (const std::size_t index : indices) {
            projected.cells.push_back(rows.row(r)[index]);
          }
        }
        rows = std::move(projected);
        columns = op.columns;
        fields = std::move(projected_fields);
        break;
      }
      case OpKind::kHashJoin: {
        NDPGEN_CHECK(build.has_value(), "join tail without a build leaf");
        // The cost model charges a classic build + probe.
        host_ns += kHostJoinBuildNsPerRow * build->rows.size() +
                   kHostJoinProbeNsPerRow * rows.size();
        rows = join_rows(rows, column_index(columns, op.probe_column),
                         build->rows,
                         column_index(build->columns, op.build_column));
        host_ns += kHostJoinEmitNsPerRow * rows.size();
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
          for (std::size_t r = 0; r < rows.size(); ++r) {
            acc = fold.combine(acc, fold.widen(rows.row(r)[value_index]));
          }
          rows = FlatRows{.width = 1, .cells = {acc}};
          columns = {out_name};
          fields = {result};
        } else {
          const std::size_t group_index =
              column_index(columns, op.group_column);
          rows = group_rows(rows, group_index, value_index, fold);
          columns = {op.group_column, out_name};
          fields = {fields[group_index], result};
        }
        break;
      }
      case OpKind::kTopK: {
        host_ns += kHostSortNsPerRowLog * rows.size() *
                   ceil_log2(std::max<std::uint64_t>(rows.size(), 2));
        rows = top_rows(rows, column_index(columns, op.order_column),
                        op.descending, op.k);
        break;
      }
    }
  }

  ResultTable table;
  table.columns = std::move(columns);
  table.rows.reserve(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    table.rows.emplace_back(rows.row(r), rows.row(r) + rows.width);
  }
  local.host_ns = host_ns;
  local.rows_out = table.rows.size();
  if (stats != nullptr) *stats = std::move(local);
  return table;
}

}  // namespace ndpgen::query
