// The ARM core's software-filter cost: SoftwareNdp::block_cost is the one
// place that prices parsing, predicate evaluation and copy-out of a block.
#include "ndp/software_ndp.hpp"

#include <gtest/gtest.h>

#include "spec/parser.hpp"

namespace ndpgen::ndp {
namespace {

// 12-byte input records projected onto 12-byte output records, so the
// copy-out cost differs from a fixed 8 bytes per emitted tuple.
const analysis::AnalyzedParser& point_parser() {
  static const analysis::AnalyzedParser parser = analysis::analyze_parser(
      spec::parse_spec(
          "typedef struct { uint32_t x, y, z; } P3;"
          "/* @autogen define parser Pt with input = P3, output = P3 */"),
      "Pt");
  return parser;
}

TEST(ArmCore, SoftwareFilterScalesWithBytes) {
  const platform::TimingConfig timing;
  const hwgen::OperatorSet operators = hwgen::OperatorSet::standard();
  const SoftwareNdp sw(point_parser(), operators, timing);
  const platform::SimTime small = sw.block_cost(1024, 8, 1, 4);
  const platform::SimTime large = sw.block_cost(32768, 256, 1, 128);
  EXPECT_GT(large, small);
  EXPECT_GT(large, timing.arm_parse_time(32768));
  // Survivors are copied out as output-layout records.
  const std::uint64_t out_bytes = point_parser().output.storage_bytes();
  EXPECT_EQ(out_bytes, 12u);
  EXPECT_EQ(sw.block_cost(0, 0, 0, 100) - sw.block_cost(0, 0, 0, 0),
            timing.arm_parse_time(100 * out_bytes) / 2);
}

TEST(ArmCore, PredicateStagesAddCost) {
  const platform::TimingConfig timing;
  const hwgen::OperatorSet operators = hwgen::OperatorSet::standard();
  const SoftwareNdp sw(point_parser(), operators, timing);
  const platform::SimTime one = sw.block_cost(32768, 2048, 1, 0);
  const platform::SimTime three = sw.block_cost(32768, 2048, 3, 0);
  EXPECT_EQ(three - one, 2u * 2048 * timing.arm_predicate_per_tuple);
}

}  // namespace
}  // namespace ndpgen::ndp
