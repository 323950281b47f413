// Logical query plans over the publication-graph dataset.
//
// A plan is a DAG of relational operators rooted at a scan: the probe
// spine is a linear operator list, and a hash-join op introduces a second
// scan leaf for its build side (the papers<->refs edge). Plans are what
// the paper calls "operator descriptions" — the input the framework
// compiles into NDP accelerators automatically — so the IR stays small
// and declarative: no physical annotations, no device knowledge. The
// optimizer (optimizer.hpp) derives pushdown/pruning facts and the
// compiler (compiler.hpp) chooses the HW/SW cut.
//
// Every node carries the source location of the plan text that produced
// it, so validation failures point a caret at the offending operator
// (ErrorKind::kPlanInvalid, exit code 21).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hwgen/pe_design.hpp"
#include "spec/token.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::query {

/// Base datasets of the publication graph (workload/pubgraph.hpp).
using Dataset = workload::Dataset;
using workload::to_string;

/// Filterable columns of a base dataset. The paper title is an opaque
/// string payload (postfix segment) and is deliberately not a plan
/// column: the validator rejects it with a pointed diagnostic.
[[nodiscard]] const std::vector<std::string>& dataset_columns(
    Dataset dataset);

enum class OpKind : std::uint8_t {
  kScan,      ///< Leaf: full scan of a base dataset.
  kFilter,    ///< Conjunction of column/op/value predicates.
  kProject,   ///< Keep the named columns, in the given order.
  kAggregate, ///< count/sum/min/max, optionally grouped by one column.
  kTopK,      ///< First K rows by one column (stable full-row tiebreak).
  kHashJoin,  ///< Inner equi-join against a second base dataset.
};

[[nodiscard]] std::string_view to_string(OpKind kind) noexcept;

/// One predicate of a filter conjunction. `op` is an operator name of
/// hwgen::OperatorSet::standard() (ne/eq/gt/ge/lt/le); values are the
/// unsigned integer domain of the pubgraph columns.
struct PlanPredicate {
  std::string column;
  std::string op;
  std::uint64_t value = 0;
  spec::SourceLoc loc;
};

/// One operator node. A tagged union in struct clothing: only the fields
/// of the node's kind are meaningful.
struct PlanOp {
  OpKind kind = OpKind::kScan;
  spec::SourceLoc loc;

  // kScan
  Dataset dataset = Dataset::kPapers;

  // kFilter
  std::vector<PlanPredicate> predicates;

  // kProject
  std::vector<std::string> columns;

  // kAggregate
  hwgen::AggOp agg_op = hwgen::AggOp::kNone;
  std::string agg_column;    ///< Empty for count.
  std::string group_column;  ///< Empty = ungrouped (single row out).

  // kTopK
  std::uint64_t k = 0;
  std::string order_column;
  bool descending = true;

  // kHashJoin: `join <build_dataset> on <probe_column> eq <build_column>`.
  // Build columns join the schema prefixed "<dataset>." (e.g. "refs.dst").
  Dataset build_dataset = Dataset::kRefs;
  std::string probe_column;
  std::string build_column;
};

/// A parsed logical plan: the probe spine in operator order. ops[0] is
/// always the scan leaf (grammar-enforced).
struct Plan {
  std::string name;
  std::vector<PlanOp> ops;
  std::string source;  ///< Original plan text, kept for caret rendering.

  [[nodiscard]] const PlanOp& scan() const { return ops.front(); }
  [[nodiscard]] std::string dump() const;
};

/// Output column names after each operator, plus derived facts the
/// optimizer wants. Produced by validate().
struct PlanSchema {
  /// Schema after the last operator (the result columns).
  std::vector<std::string> output_columns;
  /// Column name of the aggregate output ("count", "sum_n_refs", ...);
  /// empty when the plan has no aggregate.
  std::string aggregate_column;
  bool has_join = false;
  bool has_aggregate = false;
  bool has_topk = false;
};

/// Semantic validation: column existence per operator position, known
/// comparison operators, aggregate/top-k argument rules. Failures are
/// located Status{kPlanInvalid} pointing at the offending operator.
[[nodiscard]] Result<PlanSchema> validate(const Plan& plan);

// --- Rows ---------------------------------------------------------------

/// Executed plans produce rows of unsigned 64-bit column values (every
/// pubgraph column is an unsigned integer; u32 columns widen losslessly).
using Row = std::vector<std::uint64_t>;

/// A materialized result with its schema. The canonical byte form is what
/// the determinism matrix compares: identical tables <=> identical bytes.
struct ResultTable {
  std::vector<std::string> columns;
  std::vector<Row> rows;

  /// Canonical serialization: column names, then row-major LE u64 cells.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  /// crc32c of to_bytes() — the replay fingerprint.
  [[nodiscard]] std::uint32_t fingerprint() const;
  /// Human-readable table, truncated to `max_rows`.
  [[nodiscard]] std::string dump(std::size_t max_rows = 10) const;
};

}  // namespace ndpgen::query
