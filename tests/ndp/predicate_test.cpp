#include "ndp/predicate.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::ndp {
namespace {

analysis::AnalyzedParser analyzed(const std::string& source,
                                  const std::string& name = "P") {
  const auto module = spec::parse_spec(source);
  return analysis::analyze_parser(module, name);
}

const std::string kRecSpec =
    "typedef struct { uint64_t id; int32_t delta; float score; "
    "/* @string prefix = 4 */ char tag[8]; } Rec;"
    "/* @autogen define parser P with input = Rec, output = Rec */";

std::vector<std::uint8_t> make_rec(std::uint64_t id, std::int32_t delta,
                                   float score, const char tag[8]) {
  std::vector<std::uint8_t> record;
  support::put_u64(record, id);
  support::put_u32(record, static_cast<std::uint32_t>(delta));
  support::put_u32(record, std::bit_cast<std::uint32_t>(score));
  record.insert(record.end(), tag, tag + 8);
  return record;
}

class PredicateFixture : public ::testing::Test {
 protected:
  PredicateFixture()
      : parser_(analyzed(kRecSpec)),
        operators_(hwgen::OperatorSet::standard()) {}

  analysis::AnalyzedParser parser_;
  hwgen::OperatorSet operators_;
};

TEST_F(PredicateFixture, BindResolvesFieldSelectors) {
  const auto bound =
      bind_predicate(parser_.input, operators_, {"id", "eq", 42});
  EXPECT_EQ(bound.field_select, 0u);
  const auto delta =
      bind_predicate(parser_.input, operators_, {"delta", "lt", 0});
  EXPECT_EQ(delta.field_select, 1u);
  const auto prefix =
      bind_predicate(parser_.input, operators_, {"tag_prefix", "ne", 0});
  EXPECT_EQ(prefix.field_select, 3u);
}

TEST_F(PredicateFixture, BindRejectsUnknownFieldOrOperator) {
  EXPECT_THROW(bind_predicate(parser_.input, operators_, {"nope", "eq", 0}),
               ndpgen::Error);
  EXPECT_THROW(
      bind_predicate(parser_.input, operators_, {"id", "almost_eq", 0}),
      ndpgen::Error);
  // String postfixes are not filterable.
  EXPECT_THROW(
      bind_predicate(parser_.input, operators_, {"tag_postfix", "eq", 0}),
      ndpgen::Error);
}

TEST_F(PredicateFixture, SwEvalUnsigned) {
  const auto record = make_rec(100, 5, 1.0f, "abcdefg");
  const auto bound = bind_predicate(parser_.input, operators_,
                                    {"id", "ge", 100});
  EXPECT_TRUE(RecordFilter(parser_.plan, operators_, {&bound, 1}).matches(record));
  const auto bound2 =
      bind_predicate(parser_.input, operators_, {"id", "gt", 100});
  EXPECT_FALSE(RecordFilter(parser_.plan, operators_, {&bound2, 1}).matches(record));
}

TEST_F(PredicateFixture, SwEvalSigned) {
  const auto record = make_rec(1, -5, 0.0f, "abcdefg");
  const auto bound = bind_predicate(
      parser_.input, operators_,
      {"delta", "lt", 0});  // -5 < 0 only under signed interpretation.
  EXPECT_TRUE(RecordFilter(parser_.plan, operators_, {&bound, 1}).matches(record));
}

TEST_F(PredicateFixture, SwEvalFloat) {
  const auto record = make_rec(1, 0, 2.5f, "abcdefg");
  const auto bound = bind_predicate(
      parser_.input, operators_, {"score", "gt", encode_f32(2.0f)});
  EXPECT_TRUE(RecordFilter(parser_.plan, operators_, {&bound, 1}).matches(record));
  const auto bound2 = bind_predicate(
      parser_.input, operators_, {"score", "gt", encode_f32(3.0f)});
  EXPECT_FALSE(RecordFilter(parser_.plan, operators_, {&bound2, 1}).matches(record));
}

TEST_F(PredicateFixture, ConjunctionPadsWithNop) {
  const auto bound = bind_conjunction(parser_.input, operators_,
                                      {{"id", "lt", 10}}, 3);
  ASSERT_EQ(bound.size(), 3u);
  EXPECT_EQ(bound[1].op_encoding, *operators_.nop_encoding());
  EXPECT_EQ(bound[2].op_encoding, *operators_.nop_encoding());
}

TEST_F(PredicateFixture, ConjunctionTooManyPredicatesFails) {
  EXPECT_THROW(bind_conjunction(parser_.input, operators_,
                                {{"id", "lt", 10}, {"id", "gt", 1}}, 1),
               ndpgen::Error);
}

TEST_F(PredicateFixture, ConjunctionWithoutNopFails) {
  const auto no_nop = hwgen::OperatorSet::from_names({"eq", "lt"});
  EXPECT_THROW(
      bind_conjunction(parser_.input, no_nop, {{"id", "eq", 1}}, 2),
      ndpgen::Error);
  // Exactly filled: fine without nop.
  EXPECT_NO_THROW(
      bind_conjunction(parser_.input, no_nop,
                       {{"id", "eq", 1}, {"id", "lt", 9}}, 2));
}

TEST_F(PredicateFixture, TransformIdentityPreservesBytes) {
  const auto record = make_rec(7, -1, 4.5f, "abcdefg");
  const auto out = parser_.plan.project(record);
  EXPECT_EQ(out, record);
}

TEST(TransformSw, ProjectionDropsAndReorders) {
  const auto parser = analyzed(
      "/* @autogen define parser P with input = P3, output = P2, "
      "mapping = { output.x = input.y, output.y = input.z } */"
      "typedef struct { uint32_t x, y, z; } P3;"
      "typedef struct { uint32_t x, y; } P2;");
  std::vector<std::uint8_t> record;
  support::put_u32(record, 1);
  support::put_u32(record, 2);
  support::put_u32(record, 3);
  const auto out = parser.plan.project(record);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(support::get_u32(out, 0), 2u);
  EXPECT_EQ(support::get_u32(out, 4), 3u);
}

TEST(EncodeHelpers, FloatBitPatterns) {
  EXPECT_EQ(encode_f32(1.0f), 0x3f800000u);
  EXPECT_EQ(encode_f64(1.0), 0x3ff0000000000000ull);
}

TEST_F(PredicateFixture, SwEvalWrongRecordSizeFails) {
  const auto bound = bind_predicate(parser_.input, operators_, {"id", "eq", 1});
  EXPECT_THROW((void)RecordFilter(parser_.plan, operators_, {&bound, 1})
                   .matches(std::vector<std::uint8_t>(3, 0)),
               ndpgen::Error);
}

}  // namespace
}  // namespace ndpgen::ndp
