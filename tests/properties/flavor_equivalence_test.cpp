// Property sweep: the generated template and the hand-crafted baseline
// model must produce IDENTICAL results on fully-packed blocks for every
// standard operator — the precondition for the paper's apples-to-apples
// performance comparison.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/framework.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"

namespace ndpgen::hwgen {
namespace {

// The operator is a std::string, not a const char*: gtest prints a char
// pointer with its (ASLR-randomised) address, which would leak into the
// discovered ctest names and make them differ from build to build.
using Param = std::tuple<std::string /*op*/, std::uint32_t /*stages*/>;

class FlavorEquivalence : public ::testing::TestWithParam<Param> {};

TEST_P(FlavorEquivalence, BaselineMatchesGenerated) {
  const auto [op_name, spec_stages] = GetParam();
  core::Framework framework;
  const auto compiled = framework.compile(
      "typedef struct { uint64_t key; uint32_t a; uint32_t b; } Row;"
      "/* @autogen define parser Rows with input = Row, output = Row, "
      "filters = " +
      std::to_string(spec_stages) + " */");
  const auto& artifacts = compiled.get("Rows");

  constexpr std::uint64_t kTuples = 256;
  support::Xoshiro256 rng(77);
  std::vector<std::uint8_t> data;
  for (std::uint64_t i = 0; i < kTuples; ++i) {
    support::put_u64(data, rng.below(1000));
    support::put_u32(data, static_cast<std::uint32_t>(rng.below(100)));
    support::put_u32(data, static_cast<std::uint32_t>(rng.below(100)));
  }

  const auto* op = artifacts.design.operators.find(op_name);
  ASSERT_NE(op, nullptr);

  auto run = [&](DesignFlavor flavor) {
    TemplateOptions options;
    options.flavor = flavor;
    if (flavor == DesignFlavor::kHandcraftedBaseline) {
      options.static_payload_bytes =
          static_cast<std::uint32_t>(data.size());
    }
    const auto design = build_pe_design(artifacts.analyzed, options);
    hwsim::PETestBench bench(design);
    bench.memory().write_bytes(0, data);
    // Stage 0 carries the predicate (a <op> 50); extra generated stages
    // are nop'd — the baseline only ever has one stage.
    bench.set_filter(0, 1 /* a */, op->encoding, 50);
    for (std::uint32_t s = 1; s < design.filter_stage_count(); ++s) {
      bench.set_filter(s, 0, *design.operators.nop_encoding(), 0);
    }
    const auto stats = bench.run_chunk(
        0, 256 * 1024, static_cast<std::uint32_t>(data.size()));
    std::vector<std::uint8_t> out(
        bench.memory()
            .read_bytes(256 * 1024, stats.payload_bytes_out)
            .begin(),
        bench.memory()
            .read_bytes(256 * 1024, stats.payload_bytes_out)
            .end());
    return std::make_pair(stats.tuples_out, out);
  };

  const auto [generated_count, generated_bytes] =
      run(DesignFlavor::kGenerated);
  const auto [baseline_count, baseline_bytes] =
      run(DesignFlavor::kHandcraftedBaseline);
  EXPECT_EQ(generated_count, baseline_count) << op_name;
  EXPECT_EQ(generated_bytes, baseline_bytes) << op_name;
}

INSTANTIATE_TEST_SUITE_P(
    OperatorsAndStages, FlavorEquivalence,
    ::testing::Combine(::testing::Values("ne", "eq", "gt", "ge", "lt", "le",
                                         "nop"),
                       ::testing::Values(1u, 3u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::get<0>(info.param) + "_stages" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace ndpgen::hwgen
