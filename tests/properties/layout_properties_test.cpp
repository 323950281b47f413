// Property tests: contextual-analysis invariants over randomly generated
// specifications (fuzz-style, seeded and deterministic).
#include <gtest/gtest.h>

#include "analysis/analyzer.hpp"
#include "core/framework.hpp"
#include "properties/random_spec.hpp"
#include "spec/parser.hpp"
#include "support/rng.hpp"

namespace ndpgen::analysis {
namespace {

class RandomSpecProperties : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomSpecProperties, AnalysisInvariantsHold) {
  support::Xoshiro256 rng(GetParam());
  for (int iteration = 0; iteration < 20; ++iteration) {
    const std::string source = test_support::random_spec(rng, 8);
    SCOPED_TRACE(source);
    const auto module = spec::parse_spec(source);
    const auto analyzed = analyze_parser(module, "P");
    const auto& layout = analyzed.input;

    // 1. Field widths sum to the tuple width and offsets are contiguous.
    std::uint64_t offset = 0;
    for (const auto& field : layout.fields) {
      EXPECT_EQ(field.storage_offset_bits, offset);
      offset += field.storage_width_bits;
    }
    EXPECT_EQ(offset, layout.storage_bits);

    // 2. Comparator width is the max relevant width; every relevant field
    //    is padded exactly to it.
    std::uint32_t widest = 0;
    for (const auto& field : layout.fields) {
      if (field.relevant) {
        widest = std::max(widest, field.storage_width_bits);
      }
    }
    EXPECT_EQ(layout.comparator_width_bits, widest);
    for (const auto& field : layout.fields) {
      if (field.relevant) {
        EXPECT_EQ(field.padded_width_bits, widest);
      } else {
        EXPECT_EQ(field.padded_width_bits, field.storage_width_bits);
      }
    }

    // 3. Padded representation is at least as wide as storage and padded
    //    offsets don't overlap.
    EXPECT_GE(layout.padded_bits, layout.storage_bits);
    std::uint64_t padded_total = 0;
    for (const auto& field : layout.fields) {
      padded_total += field.padded_width_bits;
    }
    EXPECT_EQ(padded_total, layout.padded_bits);

    // 4. Identity mapping wires every leaf.
    EXPECT_TRUE(analyzed.mapping.identity);
    EXPECT_EQ(analyzed.mapping.wires.size(), layout.fields.size());

    // 5. At least one filterable field exists.
    EXPECT_GT(layout.relevant_count(), 0u);
  }
}

TEST_P(RandomSpecProperties, FullPipelineArtifactsGenerate) {
  support::Xoshiro256 rng(GetParam() ^ 0xabcdef);
  core::Framework framework;
  for (int iteration = 0; iteration < 6; ++iteration) {
    const std::string source = test_support::random_spec(rng, 6);
    SCOPED_TRACE(source);
    const auto compiled = framework.compile(source);
    const auto& artifacts = compiled.get("P");
    // Verilog and C header are non-trivial and reference the PE name.
    EXPECT_NE(artifacts.verilog.find("module P_filter_stage_0"),
              std::string::npos);
    EXPECT_NE(artifacts.software_interface.find("p_filter_sync"),
              std::string::npos);
    // Resource estimate is positive and below the device size.
    EXPECT_GT(artifacts.resources_in_context.total.slices, 0.0);
    EXPECT_LT(artifacts.resources_in_context.total.slices,
              hwgen::xc7z045().total_slices);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSpecProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace ndpgen::analysis
