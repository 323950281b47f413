// Property tests: the simulated hardware and the software NDP path must
// agree bit-for-bit on every (format, predicate, data) combination — the
// framework's core correctness contract. Parameterized sweeps cover the
// paper's tuple-size range, Full/Half variants and all operators. The
// fused replay and the software path read tuples through the same record
// plan, so the format sweep runs every bench in exact mode too, where the
// filter stages read the padded BitVector tuple instead.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/framework.hpp"
#include "hwsim/pe_sim.hpp"
#include "ndp/predicate.hpp"
#include "ndp/software_ndp.hpp"
#include "kv/block_format.hpp"
#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "workload/synth.hpp"

namespace ndpgen {
namespace {

// --- Sweep 1: format space (bits x half) ---------------------------------

using FormatParam = std::tuple<std::uint32_t /*bits*/, bool /*half*/>;

/// Runs eight random single-predicate filters over random tuples of the
/// "Synth" parser in `spec`, in both sim modes, and checks the PE's match
/// count against the software reader's.
void expect_hardware_matches_software(const std::string& spec,
                                      std::uint64_t data_seed,
                                      std::uint64_t predicate_seed) {
  core::Framework framework;
  const auto compiled = framework.compile(spec);
  const auto& artifacts = compiled.get("Synth");
  const auto& layout = artifacts.analyzed.input;

  const std::uint64_t tuples = std::min<std::uint64_t>(
      256, 30'000 / layout.storage_bytes());
  const auto data = workload::synth_tuples(
      static_cast<std::uint32_t>(layout.storage_bytes() * 8), tuples,
      data_seed);

  const auto relevant = layout.relevant_indices();
  for (const hwsim::SimMode mode :
       {hwsim::SimMode::kExact, hwsim::SimMode::kFast}) {
    SCOPED_TRACE(mode == hwsim::SimMode::kExact ? "exact" : "fast");
    support::Xoshiro256 rng(predicate_seed);
    hwsim::PEBenchConfig config;
    config.sim_mode = mode;
    hwsim::PETestBench bench(artifacts.design, config);
    bench.memory().write_bytes(0, data);

    for (int round = 0; round < 8; ++round) {
      // Random predicate: field, operator, value drawn from the data so
      // selectivity is non-trivial.
      const std::uint32_t field_sel =
          static_cast<std::uint32_t>(rng.below(relevant.size()));
      const auto& field = layout.fields[relevant[field_sel]];
      const auto& op =
          artifacts.design.operators.ops()[rng.below(
              artifacts.design.operators.size())];
      const std::uint64_t sample_tuple = rng.below(tuples);
      const auto sample = support::BitVector::from_bytes(
          std::span<const std::uint8_t>(data).subspan(
              sample_tuple * layout.storage_bytes(), layout.storage_bytes()));
      const std::uint64_t value = sample.extract_u64(
          field.storage_offset_bits,
          std::min<std::uint32_t>(field.storage_width_bits, 64));

      // Hardware run.
      bench.set_filter(0, field_sel, op.encoding, value);
      const auto stats = bench.run_chunk(
          0, 64 * 1024, static_cast<std::uint32_t>(data.size()));

      // Software reference over the same bytes.
      const ndp::BoundPredicate predicate{field_sel, op.encoding, value};
      const ndp::RecordFilter filter(artifacts.analyzed.plan,
                                     artifacts.design.operators,
                                     {&predicate, 1});
      std::uint64_t expected = 0;
      for (std::uint64_t t = 0; t < tuples; ++t) {
        const auto record = std::span<const std::uint8_t>(data).subspan(
            t * layout.storage_bytes(), layout.storage_bytes());
        if (filter.matches(record)) {
          ++expected;
        }
      }
      EXPECT_EQ(stats.tuples_out, expected)
          << "op=" << op.name << " field=" << field.path;
      EXPECT_EQ(stats.tuples_in, tuples);
    }
  }
}

class FormatEquivalence : public ::testing::TestWithParam<FormatParam> {};

TEST_P(FormatEquivalence, HardwareMatchesSoftwareOnRandomData) {
  const auto [bits, half] = GetParam();
  SCOPED_TRACE("bits=" + std::to_string(bits) + " half=" +
               std::to_string(half));
  expect_hardware_matches_software(workload::synth_spec(bits, half),
                                   0xfeed + bits + (half ? 1 : 0),
                                   bits * 31 + (half ? 7 : 0));
}

// Every synth_spec layout keeps each filterable field's padded offset
// equal to its storage offset, so a reader that extracts at padded
// offsets passes the sweep above. Here a string field's dropped postfix
// sits ahead of the filterable fields and moves them apart.
TEST(FormatEquivalence, StringPrefixAheadOfFilterableFields) {
  const std::string spec =
      "/* @autogen define parser Synth with chunksize = 32, input = T, "
      "output = T */\n"
      "typedef struct {\n"
      "  uint32_t f0;\n"
      "  /* @string prefix = 4 */\n"
      "  char s[20];\n"
      "  uint32_t f1;\n"
      "  uint32_t f2;\n"
      "  uint32_t f3;\n"
      "} T;\n";
  core::Framework framework;
  const auto compiled = framework.compile(spec);
  const auto& layout = compiled.get("Synth").analyzed.input;
  const auto relevant = layout.relevant_indices();
  ASSERT_TRUE(std::any_of(relevant.begin(), relevant.end(), [&](auto index) {
    return layout.fields[index].padded_offset_bits !=
           layout.fields[index].storage_offset_bits;
  })) << "the layout no longer separates the offsets";
  expect_hardware_matches_software(spec, 0x5eed, 0x0ff5e7);
}

INSTANTIATE_TEST_SUITE_P(
    PaperSweep, FormatEquivalence,
    ::testing::Combine(::testing::Values(64u, 128u, 256u, 512u, 1024u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FormatParam>& info) {
      return "bits" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Half" : "Full");
    });

// --- Sweep 2: operator semantics against a scalar oracle -----------------

class OperatorOracle : public ::testing::TestWithParam<const char*> {};

TEST_P(OperatorOracle, MatchesScalarSemanticsOnSignedField) {
  const std::string op_name = GetParam();
  core::Framework framework;
  const auto compiled = framework.compile(
      "typedef struct { int32_t v; uint32_t pad; } T;"
      "/* @autogen define parser P with input = T, output = T */");
  const auto& artifacts = compiled.get("P");
  const auto* op = artifacts.design.operators.find(op_name);
  ASSERT_NE(op, nullptr);

  const std::int32_t values[] = {-100, -1, 0, 1, 7, 100};
  std::vector<std::uint8_t> data;
  for (const std::int32_t v : values) {
    support::put_u32(data, static_cast<std::uint32_t>(v));
    support::put_u32(data, 0);
  }

  hwsim::PETestBench bench(artifacts.design);
  bench.memory().write_bytes(0, data);
  const std::int32_t reference = 1;
  bench.set_filter(0, 0, op->encoding,
                   static_cast<std::uint32_t>(reference));
  const auto stats = bench.run_chunk(
      0, 4096, static_cast<std::uint32_t>(data.size()));

  std::uint64_t expected = 0;
  for (const std::int32_t v : values) {
    bool pass;
    if (op_name == "ne") pass = v != reference;
    else if (op_name == "eq") pass = v == reference;
    else if (op_name == "gt") pass = v > reference;
    else if (op_name == "ge") pass = v >= reference;
    else if (op_name == "lt") pass = v < reference;
    else if (op_name == "le") pass = v <= reference;
    else pass = true;  // nop
    expected += pass ? 1 : 0;
  }
  EXPECT_EQ(stats.tuples_out, expected);
}

INSTANTIATE_TEST_SUITE_P(AllOperators, OperatorOracle,
                         ::testing::Values("ne", "eq", "gt", "ge", "lt",
                                           "le", "nop"));

// --- Sweep 3: pad/unpad round trip over the format space -----------------

class PadRoundTrip : public ::testing::TestWithParam<FormatParam> {};

TEST_P(PadRoundTrip, StorageSurvivesPadUnpad) {
  const auto [bits, half] = GetParam();
  core::Framework framework;
  const auto compiled = framework.compile(workload::synth_spec(bits, half));
  const auto& layout = compiled.get("Synth").analyzed.input;
  support::Xoshiro256 rng(bits + (half ? 100 : 0));
  for (int i = 0; i < 50; ++i) {
    support::BitVector storage(layout.storage_bits);
    for (std::size_t w = 0; w < layout.storage_bits; w += 64) {
      storage.deposit_u64(w, std::min<std::size_t>(64, layout.storage_bits - w),
                          rng());
    }
    const auto padded = hwsim::pad_tuple(layout, storage);
    EXPECT_EQ(padded.width(), layout.padded_bits);
    EXPECT_EQ(hwsim::unpad_tuple(layout, padded), storage);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperSweep, PadRoundTrip,
    ::testing::Combine(::testing::Values(64u, 128u, 256u, 512u, 1024u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FormatParam>& info) {
      return "bits" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Half" : "Full");
    });

}  // namespace
}  // namespace ndpgen
