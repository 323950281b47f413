#include "hwgen/operators.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "support/error.hpp"

namespace ndpgen::hwgen {
namespace {

CompareOperand unsigned_op(std::uint64_t value, std::uint32_t width = 32) {
  return CompareOperand{value, FieldInterp::kUnsigned, width};
}

CompareOperand signed_op(std::int64_t value, std::uint32_t width = 32) {
  return CompareOperand{static_cast<std::uint64_t>(value) &
                            (width == 64 ? ~0ULL : ((1ULL << width) - 1)),
                        FieldInterp::kSigned, width};
}

CompareOperand float_op(float value) {
  return CompareOperand{std::bit_cast<std::uint32_t>(value),
                        FieldInterp::kFloat, 32};
}

TEST(SignExtend, Basics) {
  EXPECT_EQ(sign_extend(0x7f, 8), 127);
  EXPECT_EQ(sign_extend(0x80, 8), -128);
  EXPECT_EQ(sign_extend(0xff, 8), -1);
  EXPECT_EQ(sign_extend(0xffffffff, 32), -1);
  EXPECT_EQ(sign_extend(5, 64), 5);
  EXPECT_EQ(sign_extend(static_cast<std::uint64_t>(-5), 64), -5);
}

TEST(StandardSet, ContainsPaperOperators) {
  const OperatorSet set = OperatorSet::standard();
  EXPECT_EQ(set.size(), 7u);
  for (const char* name : {"ne", "eq", "gt", "ge", "lt", "le", "nop"}) {
    EXPECT_NE(set.find(name), nullptr) << name;
  }
  EXPECT_EQ(set.find("ne")->encoding, 0u);
  EXPECT_EQ(set.find("nop")->encoding, 6u);
}

TEST(StandardSet, UnsignedSemantics) {
  const OperatorSet set = OperatorSet::standard();
  const auto a = unsigned_op(5);
  const auto b = unsigned_op(7);
  EXPECT_TRUE(set.evaluate(set.find("lt")->encoding, a, b));
  EXPECT_FALSE(set.evaluate(set.find("gt")->encoding, a, b));
  EXPECT_TRUE(set.evaluate(set.find("le")->encoding, a, a));
  EXPECT_TRUE(set.evaluate(set.find("ge")->encoding, a, a));
  EXPECT_TRUE(set.evaluate(set.find("eq")->encoding, a, a));
  EXPECT_TRUE(set.evaluate(set.find("ne")->encoding, a, b));
  EXPECT_TRUE(set.evaluate(set.find("nop")->encoding, a, b));
}

TEST(StandardSet, SignedSemantics) {
  const OperatorSet set = OperatorSet::standard();
  // -1 < 1 as signed, but 0xffffffff > 1 as unsigned.
  EXPECT_TRUE(set.evaluate(set.find("lt")->encoding, signed_op(-1),
                           signed_op(1)));
  EXPECT_FALSE(set.evaluate(set.find("lt")->encoding, unsigned_op(0xffffffff),
                            unsigned_op(1)));
}

TEST(StandardSet, FloatSemantics) {
  const OperatorSet set = OperatorSet::standard();
  EXPECT_TRUE(set.evaluate(set.find("lt")->encoding, float_op(-2.5f),
                           float_op(1.0f)));
  EXPECT_TRUE(set.evaluate(set.find("eq")->encoding, float_op(3.25f),
                           float_op(3.25f)));
}

TEST(StandardSet, FloatNaNSemantics) {
  const OperatorSet set = OperatorSet::standard();
  const auto nan = float_op(std::numeric_limits<float>::quiet_NaN());
  const auto one = float_op(1.0f);
  EXPECT_FALSE(set.evaluate(set.find("eq")->encoding, nan, one));
  EXPECT_FALSE(set.evaluate(set.find("lt")->encoding, nan, one));
  EXPECT_FALSE(set.evaluate(set.find("ge")->encoding, nan, one));
  EXPECT_TRUE(set.evaluate(set.find("ne")->encoding, nan, one));
}

TEST(FromNames, SubsetWithDenseEncodings) {
  const OperatorSet set = OperatorSet::from_names({"eq", "lt"});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.find("eq")->encoding, 0u);
  EXPECT_EQ(set.find("lt")->encoding, 1u);
  EXPECT_EQ(set.find("gt"), nullptr);
  EXPECT_FALSE(set.nop_encoding().has_value());
}

TEST(FromNames, EmptyGivesStandard) {
  EXPECT_EQ(OperatorSet::from_names({}).size(), 7u);
}

TEST(FromNames, UnknownNameFails) {
  EXPECT_THROW(OperatorSet::from_names({"frobnicate"}), ndpgen::Error);
}

TEST(FromNames, DuplicateFails) {
  EXPECT_THROW(OperatorSet::from_names({"eq", "eq"}), ndpgen::Error);
}

TEST(CustomOperators, ExtendTheSet) {
  // §IV-B: "the set of operators can be easily extended in our toolflow."
  const OperatorSet set = OperatorSet::standard().with_custom(
      "divisible_by",
      [](CompareOperand lhs, CompareOperand rhs) {
        return rhs.raw != 0 && lhs.raw % rhs.raw == 0;
      });
  ASSERT_EQ(set.size(), 8u);
  const CompareOp* op = set.find("divisible_by");
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->kind, CompareKind::kCustom);
  EXPECT_EQ(op->encoding, 7u);
  EXPECT_TRUE(set.evaluate(7, unsigned_op(12), unsigned_op(4)));
  EXPECT_FALSE(set.evaluate(7, unsigned_op(13), unsigned_op(4)));
}

TEST(CustomOperators, DuplicateNameFails) {
  EXPECT_THROW(OperatorSet::standard().with_custom(
                   "eq", [](CompareOperand, CompareOperand) { return true; }),
               ndpgen::Error);
}

TEST(Evaluate, BadEncodingFails) {
  const OperatorSet set = OperatorSet::standard();
  EXPECT_THROW(set.evaluate(99, unsigned_op(1), unsigned_op(2)),
               ndpgen::Error);
}

TEST(FindEncoding, Works) {
  const OperatorSet set = OperatorSet::standard();
  EXPECT_EQ(set.find_encoding(1)->name, "eq");
  EXPECT_EQ(set.find_encoding(42), nullptr);
}

}  // namespace
}  // namespace ndpgen::hwgen
