// Table-driven test of the one standard compare (hwgen::compare) and its
// bound kernels (hwgen::CompareKernel): every kind x interpretation x
// width (8/16/32/64) on edge and random words answers as the semantics
// written out below, and the block kernels' pass vectors and survivor
// lists equal per-tuple compare() over random payloads, survivor subsets
// and tuple sizes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "hwgen/operators.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ndpgen::hwgen {
namespace {

constexpr CompareKind kStandardKinds[] = {
    CompareKind::kNe, CompareKind::kEq, CompareKind::kGt, CompareKind::kGe,
    CompareKind::kLt, CompareKind::kLe, CompareKind::kNop};
constexpr FieldInterp kInterps[] = {FieldInterp::kUnsigned,
                                    FieldInterp::kSigned, FieldInterp::kFloat};
constexpr std::uint32_t kWidths[] = {8, 16, 32, 64};

std::uint64_t mask(std::uint32_t width_bits) {
  return width_bits == 64 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << width_bits) - 1;
}

enum class Order { kLess, kEqual, kGreater, kUnordered };

template <class T>
Order order_of(T a, T b) {
  if (a < b) return Order::kLess;
  if (a > b) return Order::kGreater;
  if (a == b) return Order::kEqual;
  return Order::kUnordered;
}

/// The semantics, written out: unsigned words compare whole; signed words
/// sign-extend from the width; a float field of width 32 is the low word's
/// IEEE single, of any other width the whole word's IEEE double.
Order order(FieldInterp interp, std::uint32_t w, std::uint64_t lhs,
            std::uint64_t rhs) {
  switch (interp) {
    case FieldInterp::kUnsigned: return order_of(lhs, rhs);
    case FieldInterp::kSigned: {
      const unsigned shift = 64 - w;
      return order_of(static_cast<std::int64_t>(lhs << shift) >> shift,
                      static_cast<std::int64_t>(rhs << shift) >> shift);
    }
    case FieldInterp::kFloat:
      if (w == 32) {
        return order_of(std::bit_cast<float>(static_cast<std::uint32_t>(lhs)),
                        std::bit_cast<float>(static_cast<std::uint32_t>(rhs)));
      }
      return order_of(std::bit_cast<double>(lhs), std::bit_cast<double>(rhs));
  }
  return Order::kUnordered;
}

bool expected(CompareKind kind, FieldInterp interp, std::uint32_t w,
              std::uint64_t lhs, std::uint64_t rhs) {
  const Order o = order(interp, w, lhs, rhs);
  switch (kind) {
    case CompareKind::kNe: return o != Order::kEqual;
    case CompareKind::kEq: return o == Order::kEqual;
    case CompareKind::kGt: return o == Order::kGreater;
    case CompareKind::kGe: return o == Order::kGreater || o == Order::kEqual;
    case CompareKind::kLt: return o == Order::kLess;
    case CompareKind::kLe: return o == Order::kLess || o == Order::kEqual;
    case CompareKind::kNop: return true;
    case CompareKind::kCustom: break;
  }
  ADD_FAILURE() << "no written-out semantics for a custom kind";
  return false;
}

/// Edge words of a field in raw (stored, zero-extended) form: zero, one,
/// all-ones, INT_MIN/INT_MAX and their neighbours; for a float field of
/// width 32 or 64 also NaN, +-0, +-inf, +-denormals and a few finite
/// values.
std::vector<std::uint64_t> edge_words(FieldInterp interp, std::uint32_t w) {
  const std::uint64_t top = std::uint64_t{1} << (w - 1);
  std::vector<std::uint64_t> words = {0, 1, 2, mask(w), mask(w) - 1,
                                      top, top - 1, top + 1};
  if (interp == FieldInterp::kFloat && (w == 32 || w == 64)) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double value :
         {std::numeric_limits<double>::quiet_NaN(), -0.0, 0.0, kInf, -kInf,
          -1.5, 2.25, 1e-3, -7.0}) {
      words.push_back(
          w == 32 ? std::bit_cast<std::uint32_t>(static_cast<float>(value))
                  : std::bit_cast<std::uint64_t>(value));
    }
    // The smallest denormals of either sign, a signalling NaN and -NaN.
    words.push_back(1);
    words.push_back(top | 1);
    words.push_back(w == 32 ? 0x7f800001u : 0x7ff0000000000001ull);
    words.push_back(w == 32 ? 0xffc00000u : 0xfff8000000000000ull);
  }
  return words;
}

const OperatorSet& standard_set() {
  static const OperatorSet set = OperatorSet::standard();
  return set;
}

const CompareOp& op_of(CompareKind kind) {
  for (const CompareOp& op : standard_set().ops()) {
    if (op.kind == kind) return op;
  }
  ADD_FAILURE() << "kind missing from the standard set";
  return standard_set().ops().front();
}

analysis::PlanField field_at(std::uint32_t offset_bytes, std::uint32_t w,
                             FieldInterp interp) {
  return analysis::PlanField{.storage_offset_bits = offset_bytes * 8,
                             .width_bits = w,
                             .interp = interp};
}

std::string label(CompareKind kind, FieldInterp interp, std::uint32_t w) {
  return "kind " + std::to_string(static_cast<int>(kind)) + " interp " +
         std::to_string(static_cast<int>(interp)) + " width " +
         std::to_string(w);
}

TEST(StandardCompare, KindsAreTheStandardSetInEncodingOrder) {
  const auto& ops = standard_set().ops();
  ASSERT_EQ(ops.size(), 7u);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(ops[i].kind, kStandardKinds[i]) << ops[i].name;
    EXPECT_EQ(ops[i].encoding, i);
    EXPECT_FALSE(static_cast<bool>(ops[i].eval)) << ops[i].name;
  }
  // from_names renumbers the encodings; the kind stays with the name.
  const OperatorSet picked = OperatorSet::from_names({"le", "nop", "ne"});
  EXPECT_EQ(picked.find_encoding(0)->kind, CompareKind::kLe);
  EXPECT_EQ(picked.find_encoding(1)->kind, CompareKind::kNop);
  EXPECT_EQ(picked.find_encoding(2)->kind, CompareKind::kNe);
}

TEST(StandardCompare, EveryKindInterpretationAndWidthOnEdgeAndRandomWords) {
  support::Xoshiro256 rng(1931);
  std::size_t checked = 0;
  for (const FieldInterp interp : kInterps) {
    for (const std::uint32_t w : kWidths) {
      std::vector<std::uint64_t> lhs = edge_words(interp, w);
      for (int i = 0; i < 24; ++i) lhs.push_back(rng() & mask(w));
      // The compare word as a register holds it: the edge and random
      // words, and each with bits set above the field width.
      std::vector<std::uint64_t> rhs = lhs;
      if (w < 64) {
        for (const std::uint64_t word : lhs) {
          rhs.push_back(word | (rng() << w) | (std::uint64_t{1} << w));
        }
      }
      for (const CompareKind kind : kStandardKinds) {
        const CompareOp& op = op_of(kind);
        for (const std::uint64_t r : rhs) {
          const CompareKernel kernel(op, field_at(0, w, interp), r);
          for (const std::uint64_t l : lhs) {
            const bool want = expected(kind, interp, w, l, r);
            ASSERT_EQ(compare(kind, interp, w, l, r), want)
                << label(kind, interp, w) << " lhs " << l << " rhs " << r;
            ASSERT_EQ(kernel.test(l), want)
                << label(kind, interp, w) << " lhs " << l << " rhs " << r;
            ASSERT_EQ(standard_set().evaluate(op.encoding, {l, interp, w},
                                              {r, interp, w}),
                      want)
                << label(kind, interp, w);
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 50'000u);
}

TEST(StandardCompare, NanIsUnorderedAndMinusZeroEqualsPlusZero) {
  for (const std::uint32_t w : {32u, 64u}) {
    const auto word = [w](double value) -> std::uint64_t {
      return w == 32 ? std::bit_cast<std::uint32_t>(static_cast<float>(value))
                     : std::bit_cast<std::uint64_t>(value);
    };
    const std::uint64_t nan = word(std::numeric_limits<double>::quiet_NaN());
    for (const CompareKind kind : kStandardKinds) {
      const bool holds = kind == CompareKind::kNe || kind == CompareKind::kNop;
      EXPECT_EQ(compare(kind, FieldInterp::kFloat, w, nan, word(1.0)), holds);
      EXPECT_EQ(compare(kind, FieldInterp::kFloat, w, nan, nan), holds);
    }
    EXPECT_TRUE(compare(CompareKind::kEq, FieldInterp::kFloat, w, word(-0.0),
                        word(0.0)));
    EXPECT_FALSE(compare(CompareKind::kLt, FieldInterp::kFloat, w,
                         word(-0.0), word(0.0)));
  }
  // Signed fields ignore the compare word's bits above the width;
  // unsigned ones do not.
  EXPECT_TRUE(compare(CompareKind::kEq, FieldInterp::kSigned, 8, 0xff,
                      0xffffffffffffffffull));
  EXPECT_TRUE(compare(CompareKind::kLt, FieldInterp::kUnsigned, 8, 0xff,
                      0x100));
}

TEST(StandardCompare, CustomKindHasNoStandardSemantics) {
  EXPECT_THROW((void)compare(CompareKind::kCustom, FieldInterp::kUnsigned, 32,
                             1, 2),
               Error);
}

/// Field word `w` bits wide at byte `offset` of `record`, zero-extended.
std::uint64_t load(const std::uint8_t* record, std::uint32_t offset,
                   std::uint32_t w) {
  std::uint64_t raw = 0;
  for (std::uint32_t b = 0; b < w / 8; ++b) {
    raw |= std::uint64_t{record[offset + b]} << (8 * b);
  }
  return raw;
}

/// Runs `kernel`'s block form over `ids` of `payload`, both with a pass
/// vector into a separate survivor list and without one in place, and
/// checks both against `want`, the per-tuple verdicts.
void expect_block_matches(const CompareKernel& kernel,
                          const std::vector<std::uint8_t>& payload,
                          std::size_t stride,
                          const std::vector<std::uint32_t>& ids,
                          const std::vector<bool>& want,
                          const std::string& what) {
  std::vector<std::uint32_t> want_survivors;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (want[i]) want_survivors.push_back(ids[i]);
  }
  std::vector<std::uint8_t> pass(ids.size(), 7);
  std::vector<std::uint32_t> survivors(ids.size(), ~0u);
  const std::size_t kept =
      kernel.filter(payload.data(), stride, ids.data(), ids.size(),
                    pass.data(), survivors.data());
  ASSERT_EQ(kept, want_survivors.size()) << what;
  survivors.resize(kept);
  EXPECT_EQ(survivors, want_survivors) << what;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(pass[i], want[i] ? 1 : 0) << what << " tuple " << ids[i];
  }
  std::vector<std::uint32_t> in_place = ids;
  in_place.resize(kernel.filter(payload.data(), stride, in_place.data(),
                                in_place.size(), nullptr, in_place.data()));
  EXPECT_EQ(in_place, want_survivors) << what << " (in place)";
}

TEST(CompareKernelBlocks, EqualPerTupleCompareOverRandomPayloads) {
  support::Xoshiro256 rng(4242);
  for (const std::size_t stride : {16u, 24u, 128u}) {
    for (const FieldInterp interp : kInterps) {
      for (const std::uint32_t w : kWidths) {
        for (const CompareKind kind : kStandardKinds) {
          for (int round = 0; round < 4; ++round) {
            const std::size_t tuples = 1 + rng.below(300);
            std::vector<std::uint8_t> payload(tuples * stride);
            for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
            // Any byte offset, aligned or not, that keeps the field inside.
            const auto offset =
                static_cast<std::uint32_t>(rng.below(stride - w / 8 + 1));
            // Plant edge words and repeats of the compare word.
            const auto edges = edge_words(interp, w);
            std::uint64_t rhs = rng() & mask(w);
            if (round == 1) rhs = edges[rng.below(edges.size())];
            if (round == 2) rhs |= rng() << (w % 64);  // Bits above the width.
            for (std::size_t t = 0; t < tuples; ++t) {
              const std::uint64_t pick = rng.below(4);
              if (pick == 0) continue;
              const std::uint64_t word =
                  pick == 1 ? edges[rng.below(edges.size())] : rhs & mask(w);
              for (std::uint32_t b = 0; b < w / 8; ++b) {
                payload[t * stride + offset + b] =
                    static_cast<std::uint8_t>(word >> (8 * b));
              }
            }
            // A random, ordered survivor subset (all tuples in round 0).
            std::vector<std::uint32_t> ids;
            for (std::uint32_t t = 0; t < tuples; ++t) {
              if (round == 0 || rng.below(3) != 0) ids.push_back(t);
            }
            std::vector<bool> want;
            for (const std::uint32_t id : ids) {
              want.push_back(compare(kind, interp, w,
                                     load(&payload[id * stride], offset, w),
                                     rhs));
            }
            const CompareKernel kernel(op_of(kind),
                                       field_at(offset, w, interp), rhs);
            expect_block_matches(kernel, payload, stride, ids, want,
                                 label(kind, interp, w) + " stride " +
                                     std::to_string(stride) + " round " +
                                     std::to_string(round));
          }
        }
      }
    }
  }
}

TEST(CompareKernelBlocks, CustomOperatorsCallTheirFunctionPerTuple) {
  const OperatorSet set = OperatorSet::standard().with_custom(
      "mask", [](CompareOperand lhs, CompareOperand rhs) {
        return lhs.width_bits == 16 && lhs.interp == FieldInterp::kSigned &&
               (lhs.raw & rhs.raw) == rhs.raw;
      });
  const CompareOp& op = *set.find("mask");
  support::Xoshiro256 rng(77);
  const std::size_t stride = 24;
  std::vector<std::uint8_t> payload(100 * stride);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng());
  const CompareKernel kernel(op, field_at(5, 16, FieldInterp::kSigned), 0x11);
  std::vector<std::uint32_t> ids;
  std::vector<bool> want;
  for (std::uint32_t t = 0; t < 100;
       t += 1 + static_cast<std::uint32_t>(rng.below(2))) {
    ids.push_back(t);
    want.push_back((load(&payload[t * stride], 5, 16) & 0x11) == 0x11);
    EXPECT_EQ(kernel.test(load(&payload[t * stride], 5, 16)), want.back());
  }
  expect_block_matches(kernel, payload, stride, ids, want, "custom");
}

}  // namespace
}  // namespace ndpgen::hwgen
