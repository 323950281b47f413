#include "core/framework.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::core {
namespace {

constexpr const char* kFig4 = R"spec(
/* @autogen define parser Point3DTo2D with
   chunksize = 32, input = Point3D, output = Point2D,
   mapping = { output.x = input.y, output.y = input.z } */
typedef struct { uint32_t x, y, z; } Point3D;
typedef struct { uint32_t x, y; } Point2D;
)spec";

TEST(Framework, CompileProducesAllArtifacts) {
  Framework framework;
  const CompileResult result = framework.compile(kFig4);
  ASSERT_EQ(result.parsers.size(), 1u);
  const ParserArtifacts& artifacts = result.parsers[0];
  EXPECT_EQ(artifacts.analyzed.name, "Point3DTo2D");
  EXPECT_EQ(artifacts.analyzed.input.storage_bits, 96u);
  EXPECT_EQ(artifacts.analyzed.output.storage_bits, 64u);
  EXPECT_FALSE(artifacts.verilog.empty());
  EXPECT_FALSE(artifacts.software_interface.empty());
  EXPECT_GT(artifacts.resources_in_context.total.slices, 0.0);
  EXPECT_GT(artifacts.resources_out_of_context.total.slices,
            artifacts.resources_in_context.total.slices);
  EXPECT_EQ(artifacts.design.name, "Point3DTo2D");
}

TEST(Framework, FindAndGet) {
  Framework framework;
  const CompileResult result = framework.compile(kFig4);
  EXPECT_NE(result.find("Point3DTo2D"), nullptr);
  EXPECT_EQ(result.find("Missing"), nullptr);
  EXPECT_NO_THROW(result.get("Point3DTo2D"));
  EXPECT_THROW(result.get("Missing"), ndpgen::Error);
}

TEST(Framework, CompileErrorsPropagate) {
  Framework framework;
  EXPECT_THROW(framework.compile("typedef struct {"), ndpgen::Error);
  EXPECT_THROW(framework.compile(
                   "/* @autogen define parser P with input = A, output = A */"),
               ndpgen::Error);
}

TEST(Framework, WarningsCollected) {
  Framework framework;
  const CompileResult result = framework.compile(
      "typedef struct { uint32_t a; } Used;"
      "typedef struct { uint32_t b; } Unused;"
      "/* @autogen define parser P with input = Used, output = Used */");
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_NE(result.warnings[0].message.find("Unused"), std::string::npos);
}

TEST(Framework, CompilesPubgraphSpec) {
  Framework framework;
  const CompileResult result =
      framework.compile(workload::pubgraph_spec_source());
  EXPECT_EQ(result.parsers.size(), 2u);
  EXPECT_EQ(result.get("RefScan").design.filter_stage_count(), 2u);
}

TEST(Framework, InstantiateAttachesPe) {
  Framework framework;
  const CompileResult result = framework.compile(kFig4);
  platform::CosmosPlatform platform;
  const std::size_t index =
      framework.instantiate(result, "Point3DTo2D", platform);
  EXPECT_EQ(index, 0u);
  EXPECT_EQ(platform.pe_count(), 1u);
  EXPECT_EQ(platform.pe_design(0).name, "Point3DTo2D");
}

TEST(Framework, OptionsFlowThrough) {
  FrameworkOptions options;
  options.hw.fifo_depth = 4;
  options.swif.base_address = 0x5000'0000;
  Framework framework(options);
  const CompileResult result = framework.compile(kFig4);
  EXPECT_EQ(result.parsers[0].design.fifo_depth, 4u);
  EXPECT_NE(result.parsers[0].software_interface.find("0x50000000"),
            std::string::npos);
}

TEST(Framework, MultipleParsersIndependent) {
  Framework framework;
  const CompileResult result = framework.compile(
      "typedef struct { uint32_t a; } A;"
      "typedef struct { uint64_t b; uint64_t c; } B;"
      "/* @autogen define parser PA with input = A, output = A */"
      "/* @autogen define parser PB with input = B, output = B, filters = 2 "
      "*/");
  EXPECT_EQ(result.get("PA").design.filter_stage_count(), 1u);
  EXPECT_EQ(result.get("PB").design.filter_stage_count(), 2u);
  EXPECT_NE(result.get("PA").verilog, result.get("PB").verilog);
}

}  // namespace
}  // namespace ndpgen::core
