#include "hwsim/aggregate_unit.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "hwgen/resource_model.hpp"
#include "hwgen/swif_generator.hpp"
#include "hwgen/template_builder.hpp"
#include "hwgen/verilog_emitter.hpp"
#include "hwsim/pe_sim.hpp"
#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {
namespace {

namespace hw = ndpgen::hwgen;

hw::PEDesign agg_design(const std::string& source, const std::string& name) {
  const auto module = spec::parse_spec(source);
  hw::TemplateOptions options;
  options.enable_aggregation = true;
  return hw::build_pe_design(analysis::analyze_parser(module, name), options);
}

const std::string kSensorSpec =
    "typedef struct { uint64_t id; int32_t temp; float reading; } Sensor;"
    "/* @autogen define parser S with input = Sensor, output = Sensor */";

class AggFixture : public ::testing::Test {
 protected:
  AggFixture() : bench_(agg_design(kSensorSpec, "S")) {}

  void load(std::initializer_list<std::pair<std::int32_t, float>> samples) {
    std::vector<std::uint8_t> data;
    std::uint64_t id = 1;
    for (const auto& [temp, reading] : samples) {
      support::put_u64(data, id++);
      support::put_u32(data, static_cast<std::uint32_t>(temp));
      support::put_u32(data, std::bit_cast<std::uint32_t>(reading));
    }
    bench_.memory().write_bytes(0, data);
    bytes_ = static_cast<std::uint32_t>(data.size());
  }

  ChunkStats run(hw::AggOp op, std::uint32_t field) {
    auto& pe = bench_.pe();
    const auto& map = pe.regmap();
    pe.mmio_write(map.offset_of(hw::reg::kAggOp),
                  static_cast<std::uint32_t>(op));
    pe.mmio_write(map.offset_of(hw::reg::kAggField), field);
    bench_.set_filter(0, 0, 6 /* nop */, 0);
    return bench_.run_chunk(0, 8192, bytes_);
  }

  PETestBench bench_;
  std::uint32_t bytes_ = 0;
};

TEST_F(AggFixture, RegistersPresent) {
  const auto& map = bench_.pe().regmap();
  EXPECT_NE(map.find(hw::reg::kAggOp), nullptr);
  EXPECT_NE(map.find(hw::reg::kAggResultLo), nullptr);
  EXPECT_NE(map.find(hw::reg::kAggCount), nullptr);
}

TEST_F(AggFixture, PassThroughWhenNone) {
  load({{1, 1.0f}, {2, 2.0f}, {3, 3.0f}});
  const auto stats = run(hw::AggOp::kNone, 0);
  EXPECT_EQ(stats.tuples_out, 3u);
  EXPECT_EQ(stats.agg_folded, 0u);
  EXPECT_GT(stats.payload_bytes_out, 0u);
}

TEST_F(AggFixture, CountConsumesTuples) {
  load({{1, 0.f}, {2, 0.f}, {3, 0.f}, {4, 0.f}});
  const auto stats = run(hw::AggOp::kCount, 0);
  EXPECT_EQ(stats.agg_result, 4u);
  EXPECT_EQ(stats.agg_folded, 4u);
  // Nothing flows to the store: the result lives in registers.
  EXPECT_EQ(stats.tuples_out, 0u);
  EXPECT_EQ(stats.payload_bytes_out, 0u);
  const auto& map = bench_.pe().regmap();
  EXPECT_EQ(bench_.pe().mmio_read(map.offset_of(hw::reg::kAggResultLo)), 4u);
  EXPECT_EQ(bench_.pe().mmio_read(map.offset_of(hw::reg::kAggCount)), 4u);
}

TEST_F(AggFixture, SumUnsigned) {
  load({{10, 0.f}, {20, 0.f}, {30, 0.f}});
  const auto stats = run(hw::AggOp::kSum, 0);  // Field 0 = id: 1+2+3.
  EXPECT_EQ(stats.agg_result, 6u);
}

TEST_F(AggFixture, SumSignedHandlesNegatives) {
  load({{-10, 0.f}, {25, 0.f}, {-5, 0.f}});
  const auto stats = run(hw::AggOp::kSum, 1);  // temp.
  EXPECT_EQ(static_cast<std::int64_t>(stats.agg_result), 10);
}

TEST_F(AggFixture, MinMaxSigned) {
  load({{-10, 0.f}, {25, 0.f}, {-5, 0.f}});
  EXPECT_EQ(static_cast<std::int64_t>(run(hw::AggOp::kMin, 1).agg_result),
            -10);
  EXPECT_EQ(static_cast<std::int64_t>(run(hw::AggOp::kMax, 1).agg_result),
            25);
}

TEST_F(AggFixture, MinMaxFloat) {
  load({{0, 2.5f}, {0, -1.25f}, {0, 7.75f}});
  const auto min_stats = run(hw::AggOp::kMin, 2);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(min_stats.agg_result), -1.25);
  const auto max_stats = run(hw::AggOp::kMax, 2);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(max_stats.agg_result), 7.75);
}

TEST_F(AggFixture, SumFloat) {
  load({{0, 1.5f}, {0, 2.25f}});
  const auto stats = run(hw::AggOp::kSum, 2);
  EXPECT_DOUBLE_EQ(std::bit_cast<double>(stats.agg_result), 3.75);
}

TEST_F(AggFixture, FilterAppliesBeforeAggregation) {
  load({{1, 0.f}, {2, 0.f}, {3, 0.f}, {4, 0.f}});
  auto& pe = bench_.pe();
  const auto& map = pe.regmap();
  pe.mmio_write(map.offset_of(hw::reg::kAggOp),
                static_cast<std::uint32_t>(hw::AggOp::kCount));
  pe.mmio_write(map.offset_of(hw::reg::kAggField), 0);
  bench_.set_filter(0, 1 /* temp */, 2 /* gt */, 2);
  const auto stats = bench_.run_chunk(0, 8192, bytes_);
  EXPECT_EQ(stats.agg_result, 2u);  // temps 3 and 4.
}

TEST_F(AggFixture, RunsAreIndependent) {
  load({{1, 0.f}, {2, 0.f}});
  EXPECT_EQ(run(hw::AggOp::kCount, 0).agg_result, 2u);
  EXPECT_EQ(run(hw::AggOp::kCount, 0).agg_result, 2u);  // Not 4.
}

TEST_F(AggFixture, InvalidOpRejected) {
  load({{1, 0.f}});
  auto& pe = bench_.pe();
  const auto& map = pe.regmap();
  pe.mmio_write(map.offset_of(hw::reg::kAggOp), 99);
  pe.mmio_write(map.offset_of(hw::reg::kStart), 1);
  EXPECT_THROW(bench_.kernel().run_until([&] { return !pe.busy(); }),
               ndpgen::Error);
}

TEST(Aggregate, BaselineFlavorNeverGetsAggregation) {
  const auto module = spec::parse_spec(kSensorSpec);
  hw::TemplateOptions options;
  options.enable_aggregation = true;
  options.flavor = hw::DesignFlavor::kHandcraftedBaseline;
  const auto design =
      hw::build_pe_design(analysis::analyze_parser(module, "S"), options);
  EXPECT_EQ(design.regmap.find(hw::reg::kAggOp), nullptr);
  EXPECT_TRUE(design.modules_of_kind(hw::ModuleKind::kAggregateUnit).empty());
}

TEST(Aggregate, ArtifactsIncludeAggregateUnit) {
  const auto module = spec::parse_spec(kSensorSpec);
  hw::TemplateOptions options;
  options.enable_aggregation = true;
  const auto design =
      hw::build_pe_design(analysis::analyze_parser(module, "S"), options);
  ASSERT_EQ(design.modules_of_kind(hw::ModuleKind::kAggregateUnit).size(), 1u);
  const std::string verilog = hw::emit_verilog(design);
  EXPECT_NE(verilog.find("module S_aggregate_unit"), std::string::npos);
  EXPECT_NE(verilog.find("agg_result"), std::string::npos);
  // MIN starts from the all-ones seed, so an empty MIN is ~0 as in hwsim.
  EXPECT_NE(verilog.find("agg_result <= (agg_op == 32'd3) ? ~64'd0 : 64'd0"),
            std::string::npos);
  EXPECT_EQ(verilog.find("agg_count == 0"), std::string::npos);
  const std::string header = hw::generate_software_interface(design);
  EXPECT_NE(header.find("s_aggregate_sync"), std::string::npos);
  EXPECT_NE(header.find("S_AGGOP_SUM 2"), std::string::npos);
  // The unit costs area.
  const auto with = hw::estimate_pe(design, hw::SynthesisMode::kInContext);
  hw::TemplateOptions plain;
  const auto without = hw::estimate_pe(
      hw::build_pe_design(analysis::analyze_parser(module, "S"), plain),
      hw::SynthesisMode::kInContext);
  EXPECT_GT(with.total.slices, without.total.slices);
}

}  // namespace
}  // namespace ndpgen::hwsim
