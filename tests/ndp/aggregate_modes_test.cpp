// One answer in every mode: COUNT/SUM/MIN/MAX over a store with a double
// and a signed field holding NaN, +-0, +-inf and the int32 extremes in
// different blocks must give the same bits in HW (pes 1 and 4, exact and
// fast, with and without blocks degraded to software), SW and host mode.
// Float SUM is order-sensitive by design (DESIGN.md §4): it is checked
// within each fold order, not across them.
#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "core/framework.hpp"
#include "ndp/executor.hpp"
#include "support/bytes.hpp"

namespace ndpgen::ndp {
namespace {

constexpr const char* kSpec =
    "typedef struct { uint64_t key; double v; int32_t s; } Row;"
    "/* @autogen define parser RowScan with input = Row, output = Row, "
    "filters = 2 */";

constexpr std::uint64_t kRecords = 6000;  // 20-byte records: 4+ blocks.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::int32_t kIntMin = std::numeric_limits<std::int32_t>::min();
constexpr std::int32_t kIntMax = std::numeric_limits<std::int32_t>::max();

double value_of(std::uint64_t key) {
  switch (key) {
    case 17: return std::numeric_limits<double>::quiet_NaN();
    case 1500: return -0.0;
    case 3100: return 0.0;
    case 5500: return kInf;
    case 5900: return -kInf;
    default: return static_cast<double>(key % 97) * 0.25 + 1.0;
  }
}

std::int32_t signed_of(std::uint64_t key) {
  if (key == 800) return kIntMin;
  if (key == 4400) return kIntMax;
  return static_cast<std::int32_t>((key * 7919) % 2001) - 1000;
}

kv::Key extract(std::span<const std::uint8_t> record) {
  return kv::Key{support::get_u64(record, 0), 0};
}

/// One platform + store + PE with aggregation, optionally on a fault
/// profile whose PE hangs reroute some blocks to software.
struct Store {
  explicit Store(const fault::FaultProfile& profile)
      : cosmos(cosmos_config(profile)), db(cosmos, db_config()) {
    for (std::uint64_t key = 0; key < kRecords; ++key) {
      std::vector<std::uint8_t> record;
      support::put_u64(record, key);
      support::put_u64(record, std::bit_cast<std::uint64_t>(value_of(key)));
      support::put_u32(record, static_cast<std::uint32_t>(signed_of(key)));
      db.put(record);
    }
    db.flush();
  }

  static platform::CosmosConfig cosmos_config(
      const fault::FaultProfile& profile) {
    platform::CosmosConfig config;
    config.fault = profile;
    return config;
  }

  static kv::DBConfig db_config() {
    kv::DBConfig config;
    config.record_bytes = 20;
    config.extractor = extract;
    return config;
  }

  platform::CosmosPlatform cosmos;
  kv::NKV db;
};

struct Query {
  hwgen::AggOp op;
  const char* field;
  std::vector<FilterPredicate> predicates;
};

std::vector<Query> queries() {
  const std::vector<std::vector<FilterPredicate>> filters = {
      {},                                       // Everything.
      {{"key", "lt", 5000}},                    // NaN, +-0, int extremes.
      {{"key", "ge", 100}, {"key", "lt", 5000}},  // The same without NaN.
      {{"v", "le", encode_f64(0.0)}},           // -inf, -0, +0.
      {{"key", "gt", kRecords + 10}},           // Always false.
  };
  std::vector<Query> out;
  for (const auto& predicates : filters) {
    for (const auto& [op, field] :
         std::vector<std::pair<hwgen::AggOp, const char*>>{
             {hwgen::AggOp::kCount, "v"}, {hwgen::AggOp::kSum, "s"},
             {hwgen::AggOp::kSum, "v"},   {hwgen::AggOp::kMin, "v"},
             {hwgen::AggOp::kMax, "v"},   {hwgen::AggOp::kMin, "s"},
             {hwgen::AggOp::kMax, "s"}}) {
      out.push_back(Query{op, field, predicates});
    }
  }
  return out;
}

bool float_sum(const Query& query) {
  return query.op == hwgen::AggOp::kSum && std::string(query.field) == "v";
}

class AggregateModes : public ::testing::Test {
 protected:
  AggregateModes()
      : framework_(options()), compiled_(framework_.compile(kSpec)) {}

  static core::FrameworkOptions options() {
    core::FrameworkOptions options;
    options.hw.enable_aggregation = true;
    return options;
  }

  /// raw_result of every query() in one mode; adds the blocks each query
  /// read and degraded to software to `blocks` and `degraded`.
  std::vector<std::uint64_t> run(Store& store, ExecMode mode,
                                 std::uint32_t pes = 1,
                                 hwsim::SimMode sim = hwsim::SimMode::kFast,
                                 std::uint64_t* degraded = nullptr,
                                 std::uint64_t* blocks = nullptr) {
    const auto& artifacts = compiled_.get("RowScan");
    ExecutorConfig config;
    config.mode = mode;
    config.num_pes = pes;
    config.sim_mode = sim;
    config.result_key_extractor = extract;
    if (mode == ExecMode::kHardware) {
      config.pe_indices = {store.cosmos.attach_pe(artifacts.design)};
    }
    HybridExecutor executor(store.db, artifacts.analyzed,
                            artifacts.design.operators, config);
    std::vector<std::uint64_t> results;
    for (const Query& query : queries()) {
      const auto stats =
          executor.aggregate(query.predicates, query.op, query.field);
      results.push_back(stats.raw_result);
      if (degraded != nullptr) *degraded += stats.blocks_degraded_to_software;
      if (blocks != nullptr) *blocks += stats.blocks;
    }
    return results;
  }

  core::Framework framework_;
  core::CompileResult compiled_;
};

/// Every query but the float SUMs must match bit for bit.
void expect_same_answers(const std::vector<std::uint64_t>& expected,
                         const std::vector<std::uint64_t>& actual,
                         const std::string& label) {
  const auto list = queries();
  ASSERT_EQ(actual.size(), list.size());
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (float_sum(list[i])) continue;
    EXPECT_EQ(actual[i], expected[i])
        << label << ": " << hwgen::to_string(list[i].op) << " "
        << list[i].field << " (query " << i << ")";
  }
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }
std::uint64_t bits(std::int64_t value) {
  return static_cast<std::uint64_t>(value);
}

TEST_F(AggregateModes, OneAnswerInEveryMode) {
  Store clean{fault::FaultProfile()};
  std::uint64_t blocks = 0;
  const auto sw = run(clean, ExecMode::kSoftware, 1, hwsim::SimMode::kFast,
                      nullptr, &blocks);
  EXPECT_GE(blocks, 4 * queries().size());

  // The documented answers, in query() order (7 queries per filter).
  const auto at = [&](std::size_t filter, std::size_t q) {
    return sw[filter * 7 + q];
  };
  // Everything: NaN skipped, the infinities win, the int32 extremes
  // sign-extend.
  EXPECT_EQ(at(0, 0), kRecords);
  EXPECT_EQ(at(0, 3), bits(-kInf));
  EXPECT_EQ(at(0, 4), bits(kInf));
  EXPECT_EQ(at(0, 5), bits(std::int64_t{kIntMin}));
  EXPECT_EQ(at(0, 6), bits(std::int64_t{kIntMax}));
  // key < 5000: -0 (block 0) orders below +0 (block 1), NaN is skipped.
  EXPECT_EQ(at(1, 0), 5000u);
  EXPECT_EQ(at(1, 3), bits(-0.0));
  EXPECT_EQ(at(1, 4), bits(25.0));
  // v <= 0: -inf, -0 and +0; +0 orders above -0.
  EXPECT_EQ(at(3, 0), 3u);
  EXPECT_EQ(at(3, 3), bits(-kInf));
  EXPECT_EQ(at(3, 4), bits(0.0));
  // Always false: every query returns its seed.
  EXPECT_EQ(at(4, 0), 0u);
  EXPECT_EQ(at(4, 1), 0u);
  EXPECT_EQ(at(4, 2), 0u);
  EXPECT_EQ(at(4, 3), bits(kInf));
  EXPECT_EQ(at(4, 4), bits(-kInf));
  EXPECT_EQ(at(4, 5), bits(std::numeric_limits<std::int64_t>::max()));
  EXPECT_EQ(at(4, 6), bits(std::numeric_limits<std::int64_t>::min()));

  // Host mode folds tuple by tuple in the same block order as SW: even
  // the float SUMs agree.
  EXPECT_EQ(run(clean, ExecMode::kHostClassic), sw);

  fault::FaultProfile hangs;
  hangs.seed = 7;
  hangs.pe_fault_rate = 0.5;
  for (const std::uint32_t pes : {1u, 4u}) {
    const auto exact =
        run(clean, ExecMode::kHardware, pes, hwsim::SimMode::kExact);
    const auto fast = run(clean, ExecMode::kHardware, pes);
    const std::string label = "hw pes=" + std::to_string(pes);
    expect_same_answers(sw, exact, label + " exact");
    // Within one fold order every query, float SUM included, is
    // bit-identical: exact vs fast ticking, and blocks degraded to
    // software, which fold into a block result from the seed like the PE.
    EXPECT_EQ(fast, exact) << label;
    Store faulted(hangs);
    std::uint64_t degraded = 0;
    const auto rerouted =
        run(faulted, ExecMode::kHardware, pes, hwsim::SimMode::kFast,
            &degraded);
    EXPECT_GT(degraded, 0u) << label;
    EXPECT_EQ(rerouted, exact) << label << " degraded";
  }
}

}  // namespace
}  // namespace ndpgen::ndp
