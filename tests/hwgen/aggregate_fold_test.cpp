// Property test of the one aggregate fold (hwgen::AggregateFold): for
// every op x interpretation x width, edge words plus random words fold to
// the same bits tuple by tuple, block by block in any block order, and
// through the simulated aggregate unit in both sim modes. Float SUM is
// order-sensitive by design: its blocks combine in sequence order, over
// words whose partial sums are exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "hwgen/operators.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "spec/parser.hpp"
#include "support/rng.hpp"

namespace ndpgen::hwgen {
namespace {

// One field per (interpretation, width).
const std::string kAllWidthsSpec =
    "typedef struct { uint8_t u8; uint16_t u16; uint32_t u32; uint64_t u64;"
    " int8_t s8; int16_t s16; int32_t s32; int64_t s64; float f32;"
    " double f64; } T;"
    "/* @autogen define parser P with input = T, output = T */";

constexpr AggOp kOps[] = {AggOp::kCount, AggOp::kSum, AggOp::kMin,
                          AggOp::kMax};

std::uint64_t mask(std::uint32_t width_bits) {
  return width_bits == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width_bits) - 1;
}

/// `value` stored in a float field of `width_bits` (32 or 64).
std::uint64_t float_word(std::uint32_t width_bits, double value) {
  return width_bits == 32
             ? std::bit_cast<std::uint32_t>(static_cast<float>(value))
             : std::bit_cast<std::uint64_t>(value);
}

void shuffle(std::vector<std::uint64_t>& words, support::Xoshiro256& rng) {
  for (std::size_t i = words.size(); i > 1; --i) {
    std::swap(words[i - 1], words[rng.below(i)]);
  }
}

/// Edge words of a field in its raw (stored, zero-extended) form: zero,
/// all-ones, the signed extremes, and for floats NaN, +-0, +-inf and
/// denormals.
std::vector<std::uint64_t> edge_words(const analysis::PlanField& field) {
  const std::uint32_t w = field.width_bits;
  const std::uint64_t top = std::uint64_t{1} << (w - 1);
  std::vector<std::uint64_t> words = {0, 1, mask(w), top, top - 1, top + 1};
  if (field.interp == FieldInterp::kFloat) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double value :
         {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, kInf, -kInf,
          std::numeric_limits<double>::denorm_min(), -1.5, 2.25}) {
      words.push_back(float_word(w, value));
    }
    words.push_back(w == 32 ? std::bit_cast<std::uint32_t>(
                                  std::numeric_limits<float>::denorm_min())
                            : top | 1);  // f32 denormal / f64 -denormal.
  }
  return words;
}

/// Edge words and random words, shuffled, `count` long.
std::vector<std::uint64_t> sample(const analysis::PlanField& field,
                                  support::Xoshiro256& rng,
                                  std::size_t count) {
  std::vector<std::uint64_t> words = edge_words(field);
  while (words.size() < count) words.push_back(rng() & mask(field.width_bits));
  shuffle(words, rng);
  return words;
}

/// Float words whose every partial sum is exact (quarters below 1000 in
/// magnitude, +-0), with +inf and NaN in some rounds: a float SUM of them
/// cannot depend on where the blocks are cut.
std::vector<std::uint64_t> exact_sample(const analysis::PlanField& field,
                                        support::Xoshiro256& rng,
                                        std::size_t count, int round) {
  const std::uint32_t w = field.width_bits;
  std::vector<std::uint64_t> words = {float_word(w, -0.0), float_word(w, 0.0)};
  if (round % 3 == 1) {
    words.push_back(float_word(w, std::numeric_limits<double>::infinity()));
  } else if (round % 3 == 2) {
    words.push_back(float_word(w, std::numeric_limits<double>::quiet_NaN()));
  }
  while (words.size() < count) {
    const auto quarters = static_cast<std::int64_t>(rng.below(8000)) - 4000;
    words.push_back(float_word(w, static_cast<double>(quarters) * 0.25));
  }
  shuffle(words, rng);
  return words;
}

std::uint64_t fold_all(const AggregateFold& fold,
                       const std::vector<std::uint64_t>& raws) {
  std::uint64_t acc = fold.seed();
  for (const std::uint64_t raw : raws) {
    acc = fold.combine(acc, fold.widen(raw));
  }
  return acc;
}

class AggregateFoldProperty : public ::testing::Test {
 protected:
  AggregateFoldProperty()
      : design_(build_pe_design(
            analysis::analyze_parser(spec::parse_spec(kAllWidthsSpec), "P"),
            aggregation())) {}

  static TemplateOptions aggregation() {
    TemplateOptions options;
    options.enable_aggregation = true;
    return options;
  }

  [[nodiscard]] const std::vector<analysis::PlanField>& fields() const {
    return design_.parser.plan.fields();
  }

  PEDesign design_;
};

TEST_F(AggregateFoldProperty, CoversEveryInterpretationAndWidth) {
  ASSERT_EQ(fields().size(), 10u);
  std::size_t floats = 0;
  std::size_t signeds = 0;
  for (const auto& field : fields()) {
    floats += field.interp == FieldInterp::kFloat ? 1 : 0;
    signeds += field.interp == FieldInterp::kSigned ? 1 : 0;
  }
  EXPECT_EQ(floats, 2u);
  EXPECT_EQ(signeds, 4u);
}

TEST_F(AggregateFoldProperty, SeedIsTheIdentityAndTheEmptyResult) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto& field : fields()) {
    const AggregateFold min(AggOp::kMin, field);
    const AggregateFold max(AggOp::kMax, field);
    EXPECT_EQ(AggregateFold(AggOp::kCount, field).seed(), 0u);
    EXPECT_EQ(AggregateFold(AggOp::kSum, field).seed(), 0u);
    switch (field.interp) {
      case FieldInterp::kUnsigned:
        EXPECT_EQ(min.seed(), ~std::uint64_t{0});
        EXPECT_EQ(max.seed(), 0u);
        break;
      case FieldInterp::kSigned:
        EXPECT_EQ(static_cast<std::int64_t>(min.seed()),
                  std::numeric_limits<std::int64_t>::max());
        EXPECT_EQ(static_cast<std::int64_t>(max.seed()),
                  std::numeric_limits<std::int64_t>::min());
        break;
      case FieldInterp::kFloat:
        EXPECT_EQ(std::bit_cast<double>(min.seed()), kInf);
        EXPECT_EQ(std::bit_cast<double>(max.seed()), -kInf);
        break;
    }
    for (const AggOp op : kOps) {
      const AggregateFold fold(op, field);
      EXPECT_EQ(fold_all(fold, {}), fold.seed());
      // A float SUM's seed is +0, as in the PE: 0.0 + -0.0 is +0.0.
      if (op == AggOp::kSum && field.interp == FieldInterp::kFloat) continue;
      for (const std::uint64_t raw : edge_words(field)) {
        const std::uint64_t value = fold.widen(raw);
        if (op != AggOp::kCount && field.interp == FieldInterp::kFloat &&
            std::isnan(std::bit_cast<double>(value))) {
          EXPECT_EQ(fold.combine(fold.seed(), value), fold.seed());
          continue;
        }
        EXPECT_EQ(fold.combine(fold.seed(), value), value)
            << to_string(op) << " raw=" << raw;
        EXPECT_EQ(fold.combine(value, fold.seed()), value)
            << to_string(op) << " raw=" << raw;
      }
    }
  }
}

TEST_F(AggregateFoldProperty, MinMaxSkipNanAndOrderMinusZeroBelowPlusZero) {
  for (const auto& field : fields()) {
    if (field.interp != FieldInterp::kFloat) continue;
    const auto raw = [&](double value) {
      return float_word(field.width_bits, value);
    };
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const AggregateFold min(AggOp::kMin, field);
    const AggregateFold max(AggOp::kMax, field);
    for (const auto& order : std::vector<std::vector<double>>{
             {nan, 0.0, -0.0}, {-0.0, nan, 0.0}, {0.0, -0.0, nan}}) {
      std::vector<std::uint64_t> raws;
      for (const double value : order) raws.push_back(raw(value));
      EXPECT_EQ(fold_all(min, raws), std::bit_cast<std::uint64_t>(-0.0));
      EXPECT_EQ(fold_all(max, raws), std::bit_cast<std::uint64_t>(0.0));
    }
    EXPECT_EQ(fold_all(min, {raw(nan)}), min.seed());
    EXPECT_EQ(fold_all(max, {raw(nan)}), max.seed());
  }
}

TEST_F(AggregateFoldProperty, BlockFoldsInAnyOrderMatchTupleByTuple) {
  support::Xoshiro256 rng(2718);
  for (const auto& field : fields()) {
    for (const AggOp op : kOps) {
      const AggregateFold fold(op, field);
      const bool float_sum =
          op == AggOp::kSum && field.interp == FieldInterp::kFloat;
      for (int round = 0; round < 25; ++round) {
        const std::size_t count = 16 + rng.below(48);
        const auto raws = float_sum ? exact_sample(field, rng, count, round)
                                    : sample(field, rng, count);
        const std::uint64_t expected = fold_all(fold, raws);
        // Random block cuts; each block folds from the seed.
        std::vector<std::uint64_t> blocks;
        for (std::size_t at = 0; at < raws.size();) {
          const std::size_t len = 1 + rng.below(9);
          const std::size_t end = std::min(raws.size(), at + len);
          blocks.push_back(fold_all(
              fold, std::vector<std::uint64_t>(raws.begin() + at,
                                               raws.begin() + end)));
          at = end;
        }
        if (!float_sum) shuffle(blocks, rng);
        std::uint64_t acc = fold.seed();
        for (const std::uint64_t block : blocks) {
          acc = fold.combine(acc, block);
        }
        if (float_sum && std::isnan(std::bit_cast<double>(expected))) {
          // Which NaN propagates depends on the association.
          EXPECT_TRUE(std::isnan(std::bit_cast<double>(acc)));
          continue;
        }
        EXPECT_EQ(acc, expected) << to_string(op) << " width "
                                 << field.width_bits << " round " << round;
      }
    }
  }
}

TEST_F(AggregateFoldProperty, SimulatedUnitFoldsTheSameBits) {
  const auto& input = design_.parser.input;
  const std::uint32_t tuple_bytes = input.storage_bits / 8;
  support::Xoshiro256 rng(31415);
  for (const auto mode : {hwsim::SimMode::kExact, hwsim::SimMode::kFast}) {
    hwsim::PEBenchConfig config;
    config.sim_mode = mode;
    hwsim::PETestBench bench(design_, config);
    auto& pe = bench.pe();
    const auto& map = pe.regmap();
    for (std::uint32_t select = 0; select < fields().size(); ++select) {
      const analysis::PlanField& field = fields()[select];
      const auto raws = sample(field, rng, 40);
      // Every other field holds random bytes; the selected one the sample.
      std::vector<std::uint8_t> data(raws.size() * tuple_bytes);
      for (auto& byte : data) byte = static_cast<std::uint8_t>(rng());
      for (std::size_t t = 0; t < raws.size(); ++t) {
        for (std::uint32_t b = 0; b < field.width_bits / 8; ++b) {
          data[t * tuple_bytes + field.storage_offset_bits / 8 + b] =
              static_cast<std::uint8_t>(raws[t] >> (8 * b));
        }
      }
      bench.memory().write_bytes(0, data);
      for (const AggOp op : kOps) {
        pe.mmio_write(map.offset_of(reg::kAggOp),
                      static_cast<std::uint32_t>(op));
        pe.mmio_write(map.offset_of(reg::kAggField), select);
        bench.set_filter(0, 0, *design_.operators.nop_encoding(), 0);
        const auto stats = bench.run_chunk(
            0, 1 << 20, static_cast<std::uint32_t>(data.size()));
        EXPECT_EQ(stats.agg_result, fold_all(AggregateFold(op, field), raws))
            << to_string(op) << " field " << select << " mode "
            << (mode == hwsim::SimMode::kExact ? "exact" : "fast");
        EXPECT_EQ(stats.agg_folded, raws.size());
      }
    }
  }
}

}  // namespace
}  // namespace ndpgen::hwgen
