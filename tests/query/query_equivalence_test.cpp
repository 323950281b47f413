// Plan <-> reference equivalence: every suite plan, executed through the
// compiled device+tail pipeline, must be byte-identical to the naive
// host-side reference executor — across the determinism matrix
// (pes x threads x sim-mode), under fault profiles, and on reruns.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>

#include "fault/fault_profile.hpp"
#include "query/compiler.hpp"
#include "query/executor.hpp"
#include "query/plan_parser.hpp"
#include "query/plan_suite.hpp"
#include "query/reference_executor.hpp"

namespace ndpgen::query {
namespace {

// Small enough to keep the matrix fast, big enough for non-trivial rows
// (papers: ~460 records / 2 blocks, refs: ~4601 records / 3 blocks).
constexpr std::uint64_t kScale = 8192;

// refs -> papers repeats probe keys; the recent_top join without its
// top-k (and without any tail) has many build matches per probe key.
constexpr const char* kJoinOrderPlans[] = {
    "plan RefsToPapers {\n  scan refs;\n  join papers on dst eq id;\n}\n",
    "plan RecentGroups {\n  scan papers;\n  filter year ge 2015;\n"
    "  join refs on id eq dst;\n  aggregate count group id;\n}\n",
    "plan RecentJoin {\n  scan papers;\n  filter year ge 2015;\n"
    "  join refs on id eq dst;\n}\n",
};

Plan suite_plan(const std::string& name) {
  const NamedPlan* named = find_plan(name);
  EXPECT_NE(named, nullptr) << name;
  auto parsed = parse_plan(named->source);
  EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
  return std::move(parsed).value();
}

std::vector<std::uint8_t> run_compiled(const CompiledPlan& compiled,
                                       const QueryExecOptions& options,
                                       QueryStats* stats = nullptr) {
  return execute_plan(compiled, options, stats).to_bytes();
}

TEST(QueryEquivalence, AllSuitePlansMatchReferenceInBothModes) {
  for (const auto& named : plan_suite()) {
    const Plan plan = suite_plan(named.name);
    const auto reference = reference_execute(plan, kScale).to_bytes();

    QueryExecOptions options;
    options.scale_divisor = kScale;

    auto hw = compile_plan(plan);
    ASSERT_TRUE(hw.ok()) << named.name;
    EXPECT_EQ(run_compiled(hw.value(), options), reference)
        << named.name << " (hw)";

    CompileOptions force_sw;
    force_sw.force_software = true;
    auto sw = compile_plan(plan, force_sw);
    ASSERT_TRUE(sw.ok()) << named.name;
    EXPECT_FALSE(sw.value().any_offloaded()) << named.name;
    EXPECT_EQ(run_compiled(sw.value(), options), reference)
        << named.name << " (sw fallback)";
  }
}

TEST(QueryEquivalence, EmptyOnDeviceFoldKeepsTheSeed) {
  // No paper predates 1000: the on-device MIN/MAX fold sees no tuple and
  // must return the seed the reference keeps (~0 for MIN, 0 for MAX), as
  // the forced host fallback's tail fold does.
  for (const std::string op : {"min", "max"}) {
    auto parsed = parse_plan("plan E { scan papers; filter year lt 1000; "
                             "aggregate " + op + " n_cited; }");
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const Plan plan = std::move(parsed).value();
    const ResultTable reference = reference_execute(plan, 4096);
    ASSERT_EQ(reference.rows.size(), 1u);
    EXPECT_EQ(reference.rows[0][0], op == "min" ? ~std::uint64_t{0} : 0u);

    QueryExecOptions options;
    options.scale_divisor = 4096;
    auto hw = compile_plan(plan);
    ASSERT_TRUE(hw.ok());
    EXPECT_TRUE(hw.value().probe.hw_aggregate) << op;
    EXPECT_EQ(run_compiled(hw.value(), options), reference.to_bytes()) << op;

    CompileOptions force_sw;
    force_sw.force_software = true;
    auto sw = compile_plan(plan, force_sw);
    ASSERT_TRUE(sw.ok());
    EXPECT_FALSE(sw.value().any_offloaded()) << op;
    EXPECT_EQ(run_compiled(sw.value(), options), reference.to_bytes()) << op;
  }
}

TEST(QueryEquivalence, RowPredicatesCompareAsThePeDoes) {
  // The tail binds each predicate to the PE's standard operator under the
  // column's interpretation: a signed column orders -1 below 0, a float
  // column never passes NaN.
  const auto pred = [](const char* op, std::uint64_t value) {
    return PlanPredicate{"c", op, value, {}};
  };
  const analysis::PlanField s32{.width_bits = 32,
                                .interp = analysis::FieldInterp::kSigned};
  const analysis::PlanField u32{.width_bits = 32};
  const analysis::PlanField f64{.width_bits = 64,
                                .interp = analysis::FieldInterp::kFloat};
  EXPECT_TRUE(RowPredicate(pred("lt", 0), s32).passes(0xFFFFFFFFu));
  EXPECT_FALSE(RowPredicate(pred("lt", 0), u32).passes(0xFFFFFFFFu));
  const std::uint64_t nan =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(RowPredicate(pred("eq", nan), f64).passes(nan));
  EXPECT_TRUE(RowPredicate(pred("ne", nan), f64).passes(nan));
  EXPECT_THROW(RowPredicate(pred("nop?", 0), u32), Error);
}

TEST(QueryEquivalence, JoinTopKInvariantAcrossMatrix) {
  // recent_top is the join + group-by + top-k chain: the hardest plan to
  // keep deterministic, because shard merge order and tail hashing could
  // both leak into the result.
  const Plan plan = suite_plan("recent_top");
  const auto reference = reference_execute(plan, kScale).to_bytes();
  auto compiled = compile_plan(plan);
  ASSERT_TRUE(compiled.ok());

  for (const std::uint32_t pes : {1u, 4u}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      for (const auto sim : {hwsim::SimMode::kExact, hwsim::SimMode::kFast}) {
        QueryExecOptions options;
        options.scale_divisor = kScale;
        options.pes = pes;
        options.threads = threads;
        options.sim_mode = sim;
        EXPECT_EQ(run_compiled(compiled.value(), options), reference)
            << "pes=" << pes << " threads=" << threads << " sim="
            << (sim == hwsim::SimMode::kExact ? "exact" : "fast");
      }
    }
  }
}

TEST(QueryEquivalence, JoinEmitsProbeThenBuildOrder) {
  // No sorting before the comparison: the compiled join must emit probe
  // order, then build order within a key, exactly like the reference.
  for (const char* source : kJoinOrderPlans) {
    auto parsed = parse_plan(source);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const Plan plan = std::move(parsed).value();
    const ResultTable reference = reference_execute(plan, kScale);
    ASSERT_GT(reference.rows.size(), 1u) << source;
    auto compiled = compile_plan(plan);
    ASSERT_TRUE(compiled.ok()) << source;
    for (const std::uint32_t pes : {1u, 4u}) {
      SCOPED_TRACE(std::string(source) + "pes=" + std::to_string(pes));
      QueryExecOptions options;
      options.scale_divisor = kScale;
      options.pes = pes;
      const ResultTable table = execute_plan(compiled.value(), options);
      EXPECT_EQ(table.columns, reference.columns);
      ASSERT_EQ(table.rows.size(), reference.rows.size());
      for (std::size_t i = 0; i < table.rows.size(); ++i) {
        ASSERT_EQ(table.rows[i], reference.rows[i]) << "row " << i;
      }
    }
  }
}

/// The plan's first `count` operators as a plan of their own.
Plan prefix_plan(const Plan& plan, std::size_t count) {
  Plan prefix = plan;
  prefix.ops.resize(count);
  return prefix;
}

TEST(QueryEquivalence, SortMergeOracleMatchesNestedLoop) {
  // The oracle's sort-merge join against the textbook nested loop (probe
  // order outer, build order inner), on every suite plan and on the
  // JoinEmitsProbeThenBuildOrder plans. Everything after the join is the
  // oracle's own code on the joined table, so equal joined tables make
  // equal plan results.
  std::vector<Plan> plans;
  for (const auto& named : plan_suite()) plans.push_back(suite_plan(named.name));
  for (const char* source : kJoinOrderPlans) {
    auto parsed = parse_plan(source);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    plans.push_back(std::move(parsed).value());
  }
  std::size_t joins = 0;
  for (const Plan& plan : plans) {
    const auto join = std::find_if(
        plan.ops.begin(), plan.ops.end(),
        [](const PlanOp& op) { return op.kind == OpKind::kHashJoin; });
    if (join == plan.ops.end()) continue;
    SCOPED_TRACE(plan.name);
    ++joins;
    const auto at = static_cast<std::size_t>(join - plan.ops.begin());
    const ResultTable probe = reference_execute(prefix_plan(plan, at), kScale);
    PlanOp build_scan;
    build_scan.dataset = join->build_dataset;
    Plan build_plan;
    build_plan.name = "Build";
    build_plan.ops = {build_scan};
    const ResultTable build = reference_execute(build_plan, kScale);
    const auto column = [](const ResultTable& table, const std::string& name) {
      return static_cast<std::size_t>(
          std::find(table.columns.begin(), table.columns.end(), name) -
          table.columns.begin());
    };
    const std::size_t probe_index = column(probe, join->probe_column);
    const std::size_t build_index = column(build, join->build_column);
    std::vector<Row> nested;
    for (const Row& row : probe.rows) {
      for (const Row& other : build.rows) {
        if (row[probe_index] != other[build_index]) continue;
        Row out = row;
        out.insert(out.end(), other.begin(), other.end());
        nested.push_back(std::move(out));
      }
    }
    const ResultTable joined =
        reference_execute(prefix_plan(plan, at + 1), kScale);
    EXPECT_GT(nested.size(), 1u);
    ASSERT_EQ(joined.rows.size(), nested.size());
    for (std::size_t i = 0; i < nested.size(); ++i) {
      ASSERT_EQ(joined.rows[i], nested[i]) << "row " << i;
    }
  }
  EXPECT_EQ(joins, 4u);  // recent_top and the three join-order plans.
}

TEST(QueryEquivalence, TailEdgeCasesMatchReference) {
  const char* kPlans[] = {
      // Join whose build side reaches no slot: no paper's year is a ref
      // src. (Build leaves carry no filter, so this is as empty as a
      // build side gets.)
      "plan NoBuildMatch {\n  scan papers;\n  join refs on year eq src;\n}\n",
      // Join whose probe side is empty: no paper predates 1000.
      "plan NoProbe {\n  scan papers;\n  filter year lt 1000;\n"
      "  join refs on id eq dst;\n}\n",
      // Top-k with k above the row count and tied order values; after the
      // project, the full-row tiebreak (n_cited first) is not row order.
      "plan WideTopDesc {\n  scan papers;\n  filter year lt 1960;\n"
      "  topk 1000 by year desc;\n}\n",
      "plan WideTopAsc {\n  scan papers;\n  filter year lt 1960;\n"
      "  project n_cited, year, id;\n  topk 1000 by year asc;\n}\n",
      // Grouped folds over a joined table.
      "plan JoinCount {\n  scan papers;\n  filter year ge 2015;\n"
      "  join refs on id eq dst;\n  aggregate count group id;\n}\n",
      "plan JoinSum {\n  scan papers;\n  filter year ge 2015;\n"
      "  join refs on id eq dst;\n  aggregate sum refs.src group id;\n}\n",
      "plan JoinMin {\n  scan papers;\n  join refs on id eq dst;\n"
      "  aggregate min year group refs.src;\n}\n",
      "plan JoinMax {\n  scan papers;\n  join refs on id eq dst;\n"
      "  aggregate max refs.src group venue_id;\n}\n",
  };
  for (const char* source : kPlans) {
    SCOPED_TRACE(source);
    auto parsed = parse_plan(source);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    const Plan plan = std::move(parsed).value();
    const ResultTable reference = reference_execute(plan, kScale);
    QueryExecOptions options;
    options.scale_divisor = kScale;
    for (const bool force_software : {false, true}) {
      CompileOptions compile;
      compile.force_software = force_software;
      auto compiled = compile_plan(plan, compile);
      ASSERT_TRUE(compiled.ok());
      EXPECT_EQ(run_compiled(compiled.value(), options), reference.to_bytes())
          << (force_software ? "sw fallback" : "hw");
    }
  }
}

TEST(QueryEquivalence, TailEdgeCasesAreNotVacuous) {
  // The edge cases above hold what they claim at this scale.
  const auto rows = [](const char* source) {
    auto parsed = parse_plan(source);
    EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
    return reference_execute(std::move(parsed).value(), kScale).rows;
  };
  EXPECT_TRUE(rows("plan A { scan papers; join refs on year eq src; }")
                  .empty());
  EXPECT_TRUE(rows("plan B { scan papers; filter year lt 1000; }").empty());
  const auto top = rows(
      "plan C { scan papers; filter year lt 1960; topk 1000 by year desc; }");
  ASSERT_GT(top.size(), 1u);
  EXPECT_LT(top.size(), 1000u);
  const std::size_t year = 1;  // id, year, venue_id, n_refs, n_cited.
  bool tied = false;
  for (std::size_t i = 1; i < top.size(); ++i) {
    tied |= top[i][year] == top[i - 1][year];
  }
  EXPECT_TRUE(tied);
}

TEST(QueryEquivalence, FaultProfilesPreserveResults) {
  const Plan plan = suite_plan("recent_top");
  const auto reference = reference_execute(plan, kScale).to_bytes();
  auto compiled = compile_plan(plan);
  ASSERT_TRUE(compiled.ok());

  for (const char* profile : {"degraded", "bit-rot"}) {
    auto fault = fault::FaultProfile::parse(profile);
    ASSERT_TRUE(fault.ok()) << profile;
    QueryExecOptions options;
    options.scale_divisor = kScale;
    options.pes = 4;
    options.fault = fault.value();
    QueryStats stats;
    EXPECT_EQ(run_compiled(compiled.value(), options, &stats), reference)
        << profile;
    // Faults may cost retries or per-block SW fallback, never rows.
    ASSERT_FALSE(stats.leaves.empty());
    for (const auto& leaf : stats.leaves) {
      EXPECT_TRUE(leaf.offloaded) << profile;
      EXPECT_EQ(leaf.uncorrectable_blocks, 0u) << profile;
    }
  }
}

TEST(QueryEquivalence, RerunsAreByteStable) {
  const Plan plan = suite_plan("venue_hot");
  auto compiled = compile_plan(plan);
  ASSERT_TRUE(compiled.ok());
  QueryExecOptions options;
  options.scale_divisor = kScale;
  const ResultTable first = execute_plan(compiled.value(), options);
  const ResultTable second = execute_plan(compiled.value(), options);
  EXPECT_EQ(first.to_bytes(), second.to_bytes());
  EXPECT_EQ(first.fingerprint(), second.fingerprint());
}

TEST(QueryEquivalence, StatsAccountDeviceAndHostTime) {
  const Plan plan = suite_plan("hot_window");
  auto compiled = compile_plan(plan);
  ASSERT_TRUE(compiled.ok());
  ASSERT_TRUE(compiled.value().probe.offloaded);
  QueryExecOptions options;
  options.scale_divisor = kScale;
  QueryStats stats;
  const ResultTable table = execute_plan(compiled.value(), options, &stats);
  EXPECT_EQ(stats.rows_out, table.rows.size());
  EXPECT_GT(stats.device_ns, 0u);
  EXPECT_GT(stats.host_ns, 0u);
  EXPECT_EQ(stats.elapsed(), stats.device_ns + stats.host_ns);
  ASSERT_EQ(stats.leaves.size(), 1u);
  EXPECT_TRUE(stats.leaves[0].offloaded);
  EXPECT_GE(stats.leaves[0].hw_filter_stages, 3u);
  EXPECT_GT(stats.leaves[0].tuples_scanned, 0u);
}

}  // namespace
}  // namespace ndpgen::query
