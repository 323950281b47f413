// One record sink for the scan family: scan, range_scan and
// multi_range_scan hand each result record to a RecordSink, and the
// vector-collecting overloads only append what the sink sees. Both must
// give the same records in the same order and the same ScanStats in every
// mode, shard count and sim mode — with a conjunction longer than the PE
// chain (software post-filter) and under a PE fault profile (blocks
// degraded to software) — and GET finds its record in the flat survivors.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "core/testbed.hpp"
#include "fault/fault_profile.hpp"
#include "ndp/executor.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::ndp {
namespace {

// refs at 1/2048: ~19.6k records in ~10 blocks, so 4 shards all work.
constexpr std::uint64_t kScale = 2048;

// RefScan generates two filter stages; the third predicate runs in the
// software post-filter on the PE's survivors.
const std::vector<FilterPredicate> kConjunction = {
    {"src", "ge", 150}, {"dst", "le", 1500}, {"dst", "ge", 20}};

constexpr kv::Key kRangeLo{200, 0};
constexpr kv::Key kRangeHi{900, ~std::uint64_t{0}};
const std::vector<KeyRange> kRanges = {
    {kv::Key{100, 0}, kv::Key{300, 0}},
    {kv::Key{250, 0}, kv::Key{400, ~std::uint64_t{0}}},
    {kv::Key{1200, 0}, kv::Key{1500, 0}}};

struct Case {
  ExecMode mode;
  std::uint32_t pes;
  hwsim::SimMode sim;
  bool faults;
};

std::string describe(const Case& c) {
  return std::string(to_string(c.mode)) + " pes=" + std::to_string(c.pes) +
         (c.sim == hwsim::SimMode::kExact ? " exact" : " fast") +
         (c.faults ? " faults" : "");
}

std::vector<Case> matrix() {
  std::vector<Case> cases;
  for (const bool faults : {false, true}) {
    for (const std::uint32_t pes : {1u, 4u}) {
      for (const auto sim : {hwsim::SimMode::kExact, hwsim::SimMode::kFast}) {
        cases.push_back({ExecMode::kHardware, pes, sim, faults});
      }
      cases.push_back({ExecMode::kSoftware, pes, hwsim::SimMode::kFast,
                       faults});
      cases.push_back({ExecMode::kHostClassic, pes, hwsim::SimMode::kFast,
                       faults});
    }
  }
  return cases;
}

core::TestbedConfig config_for(const Case& c) {
  core::TestbedConfig config;
  config.dataset = workload::Dataset::kRefs;
  config.scale_divisor = kScale;
  if (c.faults) {
    config.cosmos.fault =
        fault::FaultProfile::parse(
            "seed=11,read_ber=4e-4,silent_rate=0.01,pe_fault_rate=0.2")
            .value();
  }
  config.executor.mode = c.mode;
  config.executor.num_pes = c.pes;
  config.executor.sim_mode = c.sim;
  return config;
}

enum class Op { kScan, kRange, kMultiRange };

struct Collected {
  std::vector<std::vector<std::uint8_t>> records;
  ScanStats stats;
  std::uint32_t pe_stages = 0;
};

/// Runs `op` on a fresh testbed, through the sink or the vector overload.
Collected run(const Case& c, Op op, bool via_sink) {
  core::Testbed testbed(config_for(c));
  HybridExecutor& executor = testbed.executor();
  Collected out;
  out.pe_stages = testbed.artifacts().design.filter_stage_count();
  const HybridExecutor::RecordSink sink =
      [&out](std::span<const std::uint8_t> record) {
        out.records.emplace_back(record.begin(), record.end());
      };
  switch (op) {
    case Op::kScan:
      out.stats = via_sink ? executor.scan(kConjunction, sink)
                           : executor.scan(kConjunction, &out.records);
      break;
    case Op::kRange:
      out.stats =
          via_sink
              ? executor.range_scan(kRangeLo, kRangeHi, kConjunction, sink)
              : executor.range_scan(kRangeLo, kRangeHi, kConjunction,
                                    &out.records);
      break;
    case Op::kMultiRange:
      out.stats = via_sink
                      ? executor.multi_range_scan(kRanges, kConjunction, sink)
                      : executor.multi_range_scan(kRanges, kConjunction,
                                                  &out.records);
      break;
  }
  return out;
}

void expect_same_stats(const ScanStats& a, const ScanStats& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.tuples_scanned, b.tuples_scanned);
  EXPECT_EQ(a.tuples_matched, b.tuples_matched);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.bytes_from_flash, b.bytes_from_flash);
  EXPECT_EQ(a.result_bytes, b.result_bytes);
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.flash_done, b.flash_done);
  EXPECT_EQ(a.phases.ns, b.phases.ns);
  EXPECT_EQ(a.blocks_via_software, b.blocks_via_software);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.pe_phase_cycles, b.pe_phase_cycles);
  EXPECT_EQ(a.blocks_retried, b.blocks_retried);
  EXPECT_EQ(a.blocks_degraded_to_software, b.blocks_degraded_to_software);
  EXPECT_EQ(a.uncorrectable_blocks, b.uncorrectable_blocks);
  EXPECT_EQ(a.integrity_blocks, b.integrity_blocks);
}

TEST(RecordSink, MatchesTheVectorOverloadsEverywhere) {
  bool post_filtered = false;
  bool degraded = false;
  // Every mode, shard count and profile answers an operation with the
  // same records: the first case (HW, one PE, exact, fault-free) sets
  // them, so a post-filter that kept a failing record shows up against
  // the ARM's full conjunction.
  std::vector<std::vector<std::vector<std::uint8_t>>> expected(3);
  for (const Case& c : matrix()) {
    for (const Op op : {Op::kScan, Op::kRange, Op::kMultiRange}) {
      SCOPED_TRACE(describe(c) + " op=" +
                   std::to_string(static_cast<int>(op)));
      const Collected sink = run(c, op, /*via_sink=*/true);
      const Collected vector = run(c, op, /*via_sink=*/false);
      EXPECT_GT(sink.records.size(), 0u);
      EXPECT_EQ(sink.records.size(), sink.stats.results);
      EXPECT_EQ(sink.records, vector.records);
      expect_same_stats(sink.stats, vector.stats);
      auto& answer = expected[static_cast<std::size_t>(op)];
      if (answer.empty()) answer = sink.records;
      EXPECT_EQ(sink.records, answer);
      if (c.mode == ExecMode::kHardware) {
        post_filtered |= sink.pe_stages < kConjunction.size();
        degraded |= sink.stats.blocks_degraded_to_software > 0;
      }
    }
  }
  EXPECT_TRUE(post_filtered);
  EXPECT_TRUE(degraded);
}

TEST(RecordSink, GetCopiesOutTheRecordItFinds) {
  for (const ExecMode mode :
       {ExecMode::kHardware, ExecMode::kSoftware, ExecMode::kHostClassic}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    core::Testbed testbed(
        config_for({mode, 1, hwsim::SimMode::kFast, /*faults=*/false}));
    HybridExecutor& executor = testbed.executor();
    std::vector<std::vector<std::uint8_t>> records;
    executor.scan({{"src", "eq", 700}}, &records);
    // Several refs share src 700, so the PE's key filter leaves more than
    // one survivor and GET must pick the one with the full key.
    ASSERT_GT(records.size(), 1u);
    const std::vector<std::uint8_t>& wanted = records[records.size() / 2];
    const GetStats hit = executor.get(workload::ref_key(wanted));
    EXPECT_TRUE(hit.found);
    EXPECT_EQ(hit.record, wanted);
    const GetStats miss = executor.get(kv::Key{700, ~std::uint64_t{0}});
    EXPECT_FALSE(miss.found);
    EXPECT_TRUE(miss.record.empty());
  }
}

}  // namespace
}  // namespace ndpgen::ndp
