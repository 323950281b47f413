// The record plan against independent references: extract() against a
// BitVector read of the packed record, project() against the output bytes
// of an exact-mode PE that passes every tuple (padded BitVector tuples
// through the transform unit's wires).
#include "analysis/record_plan.hpp"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "kv/block_format.hpp"
#include "properties/random_spec.hpp"
#include "spec/parser.hpp"
#include "support/bitvec.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::analysis {
namespace {

AnalyzedParser analyzed(const std::string& source, const std::string& name) {
  return analyze_parser(spec::parse_spec(source), name);
}

std::vector<std::uint8_t> random_records(support::Xoshiro256& rng,
                                         std::uint32_t record_bytes,
                                         std::uint32_t count) {
  std::vector<std::uint8_t> bytes(std::size_t{record_bytes} * count);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// Every mux field of every record reads as the BitVector reference does.
void expect_extract_matches_bitvector(const AnalyzedParser& parser,
                                      support::Xoshiro256& rng) {
  const RecordPlan& plan = parser.plan;
  const auto relevant = parser.input.relevant_indices();
  ASSERT_EQ(plan.fields().size(), relevant.size());
  const std::uint32_t bytes = parser.input.storage_bytes();
  const auto data = random_records(rng, bytes, 16);
  for (std::uint32_t r = 0; r < 16; ++r) {
    const auto record = std::span<const std::uint8_t>(data).subspan(
        std::size_t{r} * bytes, bytes);
    const auto reference = support::BitVector::from_bytes(record);
    for (std::uint32_t select = 0; select < relevant.size(); ++select) {
      const FieldLayout& field = parser.input.fields[relevant[select]];
      EXPECT_EQ(plan.extract(record, select),
                reference.extract_u64(field.storage_offset_bits,
                                      field.storage_width_bits))
          << field.path;
    }
  }
}

/// Runs `count` random records through an exact-mode PE with every filter
/// stage on nop and expects its output bytes to be the records' plan
/// projections, back to back.
void expect_project_matches_exact_pe(const hwgen::PEDesign& design,
                                     support::Xoshiro256& rng,
                                     std::uint32_t count) {
  const RecordPlan& plan = design.parser.plan;
  const std::uint32_t in_bytes = plan.input_bytes();
  const std::uint32_t out_bytes = plan.output_bytes();
  const auto data = random_records(rng, in_bytes, count);
  hwsim::PEBenchConfig config;
  config.sim_mode = hwsim::SimMode::kExact;
  hwsim::PETestBench bench(design, config);
  bench.memory().write_bytes(0, data);
  for (std::uint32_t s = 0; s < design.filter_stage_count(); ++s) {
    bench.set_filter(s, 0, *design.operators.nop_encoding(), 0);
  }
  constexpr std::uint64_t kOut = 1 << 20;
  const auto stats =
      bench.run_chunk(0, kOut, static_cast<std::uint32_t>(data.size()));
  ASSERT_EQ(stats.tuples_out, count);
  const auto written =
      bench.memory().read_bytes(kOut, std::size_t{out_bytes} * count);
  for (std::uint32_t r = 0; r < count; ++r) {
    const auto projected = plan.project(std::span<const std::uint8_t>(data)
                                            .subspan(std::size_t{r} * in_bytes,
                                                     in_bytes));
    const auto pe = written.subspan(std::size_t{r} * out_bytes, out_bytes);
    EXPECT_EQ(projected, std::vector<std::uint8_t>(pe.begin(), pe.end()))
        << "record " << r;
  }
}

hwgen::PEDesign design_of(const AnalyzedParser& parser,
                          hwgen::TemplateOptions options = {}) {
  return hwgen::build_pe_design(parser, options);
}

// A u16 that straddles a byte boundary, a u32 that straddles a 32-bit one
// and an i64 at bit 56 that straddles the first 64-bit word.
const std::string kStraddleSpec =
    "typedef struct { uint8_t a; uint16_t b; uint32_t c; int64_t d; "
    "float e; } S;"
    "/* @autogen define parser P with input = S, output = S */";

TEST(RecordPlan, ExtractMatchesBitVectorOnStraddlingFields) {
  const auto parser = analyzed(kStraddleSpec, "P");
  ASSERT_EQ(parser.plan.fields().size(), 5u);
  EXPECT_EQ(parser.plan.fields()[1].storage_offset_bits, 8u);
  EXPECT_EQ(parser.plan.fields()[3].storage_offset_bits, 56u);
  std::vector<std::uint8_t> record{0xa1};
  support::put_u16(record, 0xb2c3);
  support::put_u32(record, 0xd4e5f607);
  support::put_u64(record, 0x8877665544332211ull);
  support::put_u32(record, 0x3f800000);
  EXPECT_EQ(parser.plan.extract(record, 0), 0xa1u);
  EXPECT_EQ(parser.plan.extract(record, 1), 0xb2c3u);
  EXPECT_EQ(parser.plan.extract(record, 2), 0xd4e5f607u);
  EXPECT_EQ(parser.plan.extract(record, 3), 0x8877665544332211ull);
  EXPECT_EQ(parser.plan.extract(record, 4), 0x3f800000u);
  support::Xoshiro256 rng(5);
  expect_extract_matches_bitvector(parser, rng);
}

TEST(RecordPlan, ExtractMatchesBitVectorOnRandomAndStockParsers) {
  support::Xoshiro256 rng(2021);
  for (int i = 0; i < 40; ++i) {
    const std::string source = test_support::random_spec(rng, 8);
    SCOPED_TRACE(source);
    expect_extract_matches_bitvector(analyzed(source, "P"), rng);
  }
  for (const char* name : {"PaperScan", "RefScan"}) {
    SCOPED_TRACE(name);
    expect_extract_matches_bitvector(
        analyzed(workload::pubgraph_spec_source(), name), rng);
  }
}

TEST(RecordPlan, ProjectMatchesExactPeOnRandomSpecs) {
  support::Xoshiro256 rng(77);
  for (int i = 0; i < 12; ++i) {
    const std::string source = test_support::random_spec(rng, 8);
    SCOPED_TRACE(source);
    expect_project_matches_exact_pe(design_of(analyzed(source, "P")), rng,
                                    24);
  }
  SCOPED_TRACE("straddling fields");
  expect_project_matches_exact_pe(design_of(analyzed(kStraddleSpec, "P")),
                                  rng, 24);
}

TEST(RecordPlan, ProjectMatchesExactPeOnStockAndBaselineParsers) {
  support::Xoshiro256 rng(78);
  const std::string& source = workload::pubgraph_spec_source();
  const auto paper_scan = analyzed(source, "PaperScan");
  {
    SCOPED_TRACE("PaperScan");
    expect_project_matches_exact_pe(design_of(paper_scan), rng, 40);
  }
  {
    SCOPED_TRACE("RefScan");
    expect_project_matches_exact_pe(design_of(analyzed(source, "RefScan")),
                                    rng, 200);
  }
  {
    // The hand-crafted baseline reads a fixed payload: one full block.
    SCOPED_TRACE("PaperScan static baseline");
    const std::uint32_t bytes = paper_scan.input.storage_bytes();
    const std::uint32_t records = kv::records_per_block(bytes);
    hwgen::TemplateOptions options;
    options.flavor = hwgen::DesignFlavor::kHandcraftedBaseline;
    options.static_payload_bytes = records * bytes;
    expect_project_matches_exact_pe(design_of(paper_scan, options), rng,
                                    records);
  }
}

TEST(RecordPlan, ProjectComposesReorderedAndDuplicatedWires) {
  const auto parser = analyzed(
      "/* @autogen define parser R with input = Wide, output = Shuffled, "
      "mapping = { output.a = input.z, output.b = input.x, "
      "output.c = input.y, output.d = input.x } */"
      "typedef struct { uint64_t x; uint16_t y; uint32_t z; } Wide;"
      "typedef struct { uint32_t a; uint64_t b; uint16_t c; uint64_t d; } "
      "Shuffled;",
      "R");
  std::vector<std::uint8_t> record;
  support::put_u64(record, 0x0102030405060708ull);
  support::put_u16(record, 0x1122);
  support::put_u32(record, 0xaabbccdd);
  const auto out = parser.plan.project(record);
  ASSERT_EQ(out.size(), 22u);
  EXPECT_EQ(support::get_u32(out, 0), 0xaabbccddu);
  EXPECT_EQ(support::get_u64(out, 4), 0x0102030405060708ull);
  EXPECT_EQ(support::get_u16(out, 12), 0x1122u);
  EXPECT_EQ(support::get_u64(out, 14), 0x0102030405060708ull);
  support::Xoshiro256 rng(9);
  expect_project_matches_exact_pe(design_of(parser), rng, 60);
}

TEST(RecordPlan, SelectDecodesAndPacksNamedColumns) {
  const auto parser = analyzed(kStraddleSpec, "P");
  const auto plan = RecordPlan::select(parser.output, {"d", "b"});
  ASSERT_EQ(plan.fields().size(), 2u);
  EXPECT_EQ(plan.output_bytes(), 10u);
  std::vector<std::uint8_t> record{0xa1};
  support::put_u16(record, 0xb2c3);
  support::put_u32(record, 0xd4e5f607);
  support::put_u64(record, 0x8877665544332211ull);
  support::put_u32(record, 0x3f800000);
  EXPECT_EQ(plan.extract(record, 0), 0x8877665544332211ull);
  EXPECT_EQ(plan.extract(record, 1), 0xb2c3u);
  const auto packed = plan.project(record);
  ASSERT_EQ(packed.size(), 10u);
  EXPECT_EQ(support::get_u64(packed, 0), 0x8877665544332211ull);
  EXPECT_EQ(support::get_u16(packed, 8), 0xb2c3u);
  EXPECT_THROW((void)RecordPlan::select(parser.output, {"nope"}), Error);
}

TEST(RecordPlan, ReadsAreBoundsChecked) {
  const auto parser = analyzed(kStraddleSpec, "P");
  const RecordPlan& plan = parser.plan;
  const std::vector<std::uint8_t> record(plan.input_bytes(), 0);
  EXPECT_NO_THROW((void)plan.extract(record, 4));
  EXPECT_THROW((void)plan.extract(record, 5), Error);
  const std::vector<std::uint8_t> short_record(plan.input_bytes() - 1, 0);
  EXPECT_THROW((void)plan.extract(short_record, 0), Error);
  EXPECT_THROW((void)plan.project(short_record), Error);
  std::vector<std::uint8_t> small_out(plan.output_bytes() - 1);
  EXPECT_THROW(plan.project(record, small_out), Error);
}

TEST(RecordPlan, FieldInterpFollowsThePrimitive) {
  using spec::PrimitiveKind;
  for (const auto kind : {PrimitiveKind::kU8, PrimitiveKind::kU16,
                          PrimitiveKind::kU32, PrimitiveKind::kU64}) {
    EXPECT_EQ(field_interp(kind), FieldInterp::kUnsigned);
  }
  for (const auto kind : {PrimitiveKind::kI8, PrimitiveKind::kI16,
                          PrimitiveKind::kI32, PrimitiveKind::kI64}) {
    EXPECT_EQ(field_interp(kind), FieldInterp::kSigned);
  }
  EXPECT_EQ(field_interp(PrimitiveKind::kF32), FieldInterp::kFloat);
  EXPECT_EQ(field_interp(PrimitiveKind::kF64), FieldInterp::kFloat);
}

}  // namespace
}  // namespace ndpgen::analysis
