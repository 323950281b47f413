#include "hwgen/template_builder.hpp"

#include <gtest/gtest.h>

#include "spec/parser.hpp"
#include "support/error.hpp"

namespace ndpgen::hwgen {
namespace {

analysis::AnalyzedParser analyzed(std::string_view source,
                                  std::string_view name = "P") {
  const auto module = spec::parse_spec(source);
  return analysis::analyze_parser(module, name);
}

const char* kEdgeSpec =
    "typedef struct { uint64_t src; uint64_t dst; } Edge;"
    "/* @autogen define parser P with input = Edge, output = Edge, "
    "filters = 3 */";

TEST(TemplateBuilder, BuildsAllTemplateComponents) {
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  EXPECT_EQ(design.name, "P");
  EXPECT_EQ(design.flavor, DesignFlavor::kGenerated);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kControlRegs).size(), 1u);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kLoadUnit).size(), 1u);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kStoreUnit).size(), 1u);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kTupleInputBuffer).size(), 1u);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kTupleOutputBuffer).size(), 1u);
  EXPECT_EQ(design.modules_of_kind(ModuleKind::kTransformUnit).size(), 1u);
  EXPECT_EQ(design.filter_stage_count(), 3u);
}

TEST(TemplateBuilder, PipelineIsLinear) {
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  // load -> tuple_in -> f0 -> f1 -> f2 -> transform -> tuple_out -> store.
  const ModuleInstance* cursor = design.find_module("load_unit");
  std::vector<std::string> chain;
  while (cursor != nullptr) {
    chain.push_back(cursor->name);
    cursor = design.successor(cursor->name);
  }
  const std::vector<std::string> expected = {
      "load_unit",      "tuple_in",      "filter_stage_0", "filter_stage_1",
      "filter_stage_2", "transform_unit", "tuple_out",      "store_unit"};
  EXPECT_EQ(chain, expected);
}

TEST(TemplateBuilder, RegisterMapMatchesStageCount) {
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  EXPECT_NE(design.regmap.find("FILTER_OP_2"), nullptr);
  EXPECT_EQ(design.regmap.find("FILTER_OP_3"), nullptr);
  EXPECT_NE(design.regmap.find(reg::kInSize), nullptr);
}

TEST(TemplateBuilder, ParametersReflectLayout) {
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  const ModuleInstance* in_buffer = design.find_module("tuple_in");
  ASSERT_NE(in_buffer, nullptr);
  EXPECT_EQ(in_buffer->param("storage_bits"), 128u);
  EXPECT_EQ(in_buffer->param("comparator_width"), 64u);
  EXPECT_EQ(in_buffer->param("relevant_fields"), 2u);
  const ModuleInstance* stage = design.find_module("filter_stage_0");
  EXPECT_EQ(stage->param("num_operators"), 7u);
}

TEST(TemplateBuilder, BaselineIsSingleStageStatic) {
  TemplateOptions options;
  options.flavor = DesignFlavor::kHandcraftedBaseline;
  options.static_payload_bytes = 32752;
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec), options);
  // [1]'s architecture was not chainable: one stage regardless of spec.
  EXPECT_EQ(design.filter_stage_count(), 1u);
  EXPECT_EQ(design.regmap.find(reg::kInSize), nullptr);
  EXPECT_EQ(design.static_payload_bytes, 32752u);
  const ModuleInstance* load = design.find_module("load_unit");
  EXPECT_EQ(load->param("configurable"), 0u);
}

TEST(TemplateBuilder, GeneratedIgnoresStaticPayload) {
  TemplateOptions options;
  options.static_payload_bytes = 1234;
  const PEDesign design = build_pe_design(analyzed(kEdgeSpec), options);
  EXPECT_EQ(design.static_payload_bytes, 0u);
}

TEST(TemplateBuilder, SpecOperatorSubset) {
  const PEDesign design = build_pe_design(analyzed(
      "typedef struct { uint64_t a; } T;"
      "/* @autogen define parser P with input = T, output = T, "
      "operators = { eq, nop } */"));
  EXPECT_EQ(design.operators.size(), 2u);
  EXPECT_NE(design.operators.find("eq"), nullptr);
  EXPECT_EQ(design.operators.find("lt"), nullptr);
}

TEST(TemplateBuilder, ValidateCatchesBrokenPipelines) {
  PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  design.connections.pop_back();  // Sever tuple_out -> store_unit.
  EXPECT_THROW(design.validate(), ndpgen::Error);
}

TEST(TemplateBuilder, ValidateCatchesDuplicateNames) {
  PEDesign design = build_pe_design(analyzed(kEdgeSpec));
  design.modules.push_back(design.modules.back());
  EXPECT_THROW(design.validate(), ndpgen::Error);
}

TEST(TemplateBuilder, TransformIdentityFlag) {
  const PEDesign identity = build_pe_design(analyzed(
      "typedef struct { uint32_t a; } T;"
      "/* @autogen define parser P with input = T, output = T */"));
  EXPECT_EQ(identity.find_module("transform_unit")->param("identity"), 1u);

  const PEDesign projecting = build_pe_design(analyzed(
      "typedef struct { uint32_t a, b; } In;"
      "typedef struct { uint32_t a; } Out;"
      "/* @autogen define parser P with input = In, output = Out */"));
  EXPECT_EQ(projecting.find_module("transform_unit")->param("identity"), 0u);
}

}  // namespace
}  // namespace ndpgen::hwgen
