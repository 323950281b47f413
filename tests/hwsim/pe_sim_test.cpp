#include "hwsim/pe_sim.hpp"

#include <gtest/gtest.h>

#include <array>

#include "hwgen/template_builder.hpp"
#include "ndp/predicate.hpp"
#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {
namespace {

namespace hw = ndpgen::hwgen;

hw::PEDesign design_for(const std::string& source, const std::string& name,
                        hw::DesignFlavor flavor = hw::DesignFlavor::kGenerated,
                        std::uint32_t static_payload = 0) {
  const auto module = spec::parse_spec(source);
  hw::TemplateOptions options;
  options.flavor = flavor;
  options.static_payload_bytes = static_payload;
  return hw::build_pe_design(analysis::analyze_parser(module, name), options);
}

const std::string kPointSpec =
    "/* @autogen define parser P with chunksize = 32, input = Point3D, "
    "output = Point2D, mapping = { output.x = input.y, output.y = input.z } "
    "*/"
    "typedef struct { uint32_t x, y, z; } Point3D;"
    "typedef struct { uint32_t x, y; } Point2D;";

std::vector<std::uint8_t> make_points(std::uint32_t count) {
  std::vector<std::uint8_t> data;
  for (std::uint32_t i = 0; i < count; ++i) {
    support::put_u32(data, i);
    support::put_u32(data, 100 + i);
    support::put_u32(data, 1000 + i);
  }
  return data;
}

TEST(PESim, PassThroughNopFilter) {
  PETestBench bench(design_for(kPointSpec, "P"));
  const auto points = make_points(16);
  bench.memory().write_bytes(0, points);
  bench.set_filter(0, 0, 6 /* nop */, 0);
  const auto stats = bench.run_chunk(0, 4096, points.size());
  EXPECT_EQ(stats.tuples_in, 16u);
  EXPECT_EQ(stats.tuples_out, 16u);
  EXPECT_EQ(stats.payload_bytes_out, 16u * 8);
  // Verify the transform: Point2D{x=y_in, y=z_in}.
  for (std::uint32_t i = 0; i < 16; ++i) {
    const auto record = bench.memory().read_bytes(4096 + i * 8, 8);
    EXPECT_EQ(support::get_u32(record, 0), 100 + i);
    EXPECT_EQ(support::get_u32(record, 4), 1000 + i);
  }
}

TEST(PESim, FilterDropsNonMatching) {
  PETestBench bench(design_for(kPointSpec, "P"));
  const auto points = make_points(32);
  bench.memory().write_bytes(0, points);
  // x >= 16 (field 0 is x).
  bench.set_filter(0, 0, 3 /* ge */, 16);
  const auto stats = bench.run_chunk(0, 8192, points.size());
  EXPECT_EQ(stats.tuples_in, 32u);
  EXPECT_EQ(stats.tuples_out, 16u);
  ASSERT_EQ(stats.stage_pass_counts.size(), 1u);
  EXPECT_EQ(stats.stage_pass_counts[0], 16u);
  const auto first = bench.memory().read_bytes(8192, 4);
  EXPECT_EQ(support::get_u32(first, 0), 100 + 16);
}

TEST(PESim, CycleClassificationAccountsForEveryTick) {
  PETestBench bench(design_for(kPointSpec, "P"));
  const auto points = make_points(32);
  bench.memory().write_bytes(0, points);
  bench.set_filter(0, 0, 6 /* nop */, 0);
  const auto stats = bench.run_chunk(0, 8192, points.size());
  // Per-chunk classes partition the chunk's cycles...
  EXPECT_EQ(stats.cycles_useful + stats.cycles_stalled + stats.cycles_idle,
            stats.cycles);
  EXPECT_GT(stats.cycles_useful, 0u);
  // ...and the kernel-lifetime classes partition the kernel clock.
  const CycleStats& classes = bench.kernel().cycle_stats();
  EXPECT_EQ(classes.total(), bench.kernel().now());
  EXPECT_GE(classes.total(), stats.cycles);
}

TEST(PESim, CycleClassificationIsDeterministic) {
  auto classify = [] {
    PETestBench bench(design_for(kPointSpec, "P"));
    const auto points = make_points(16);
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 8);
    const auto stats = bench.run_chunk(0, 4096, points.size());
    return std::array<std::uint64_t, 3>{stats.cycles_useful,
                                        stats.cycles_stalled,
                                        stats.cycles_idle};
  };
  EXPECT_EQ(classify(), classify());
}

TEST(PESim, RegistersReflectRun) {
  PETestBench bench(design_for(kPointSpec, "P"));
  const auto points = make_points(8);
  bench.memory().write_bytes(0, points);
  bench.set_filter(0, 2 /* z */, 2 /* gt */, 1003);
  (void)bench.run_chunk(0, 4096, points.size());
  auto& pe = bench.pe();
  const auto& map = pe.regmap();
  EXPECT_EQ(pe.mmio_read(map.offset_of(hw::reg::kBusy)), 0u);
  EXPECT_EQ(pe.mmio_read(map.offset_of(hw::reg::kTupleCount)), 4u);
  EXPECT_EQ(pe.mmio_read(map.offset_of(hw::reg::kFilterCounter)), 4u);
  EXPECT_EQ(pe.mmio_read(map.offset_of(hw::reg::kOutSize)), 4u * 8);
  EXPECT_GT(pe.mmio_read(map.offset_of(hw::reg::kCycleCounter)), 0u);
}

TEST(PESim, ReadOnlyRegistersIgnoreWrites) {
  PETestBench bench(design_for(kPointSpec, "P"));
  auto& pe = bench.pe();
  const auto offset = pe.regmap().offset_of(hw::reg::kTupleCount);
  pe.mmio_write(offset, 999);
  EXPECT_EQ(pe.mmio_read(offset), 0u);
}

TEST(PESim, UnmappedMmioReadReturnsSentinel) {
  PETestBench bench(design_for(kPointSpec, "P"));
  EXPECT_EQ(bench.pe().mmio_read(0xf00), 0xdeadbeefu);
}

TEST(PESim, UnmappedMmioWriteThrows) {
  PETestBench bench(design_for(kPointSpec, "P"));
  EXPECT_THROW(bench.pe().mmio_write(0xf00, 1), ndpgen::Error);
}

TEST(PESim, PartialTrailingTupleDiscarded) {
  PETestBench bench(design_for(kPointSpec, "P"));
  auto points = make_points(4);
  points.resize(points.size() + 5, 0xee);  // 5 trailing garbage bytes.
  bench.memory().write_bytes(0, points);
  bench.set_filter(0, 0, 6, 0);
  const auto stats =
      bench.run_chunk(0, 4096, static_cast<std::uint32_t>(points.size()));
  EXPECT_EQ(stats.tuples_in, 4u);
  EXPECT_EQ(stats.tuples_out, 4u);
}

TEST(PESim, MultiStageConjunction) {
  const std::string spec =
      "typedef struct { uint64_t src; uint64_t dst; } Edge;"
      "/* @autogen define parser E with input = Edge, output = Edge, "
      "filters = 2 */";
  PETestBench bench(design_for(spec, "E"));
  std::vector<std::uint8_t> edges;
  for (std::uint64_t i = 0; i < 64; ++i) {
    support::put_u64(edges, i);
    support::put_u64(edges, i * 3);
  }
  bench.memory().write_bytes(0, edges);
  bench.set_filter(0, 1 /* dst */, 3 /* ge */, 30);   // dst >= 30
  bench.set_filter(1, 1 /* dst */, 4 /* lt */, 90);   // dst < 90
  const auto stats =
      bench.run_chunk(0, 8192, static_cast<std::uint32_t>(edges.size()));
  // dst = 3i in [30, 90) -> i in [10, 30): 20 edges.
  EXPECT_EQ(stats.tuples_out, 20u);
  ASSERT_EQ(stats.stage_pass_counts.size(), 2u);
  EXPECT_EQ(stats.stage_pass_counts[0], 54u);  // i >= 10.
  EXPECT_EQ(stats.stage_pass_counts[1], 20u);
}

TEST(PESim, ElasticPipelineStageLatencyIsMarginal) {
  // §V: "additional filtering stages will only add very small increases
  // to the overall execution times" (1 tuple/cycle/stage).
  const std::string base =
      "typedef struct { uint64_t a; uint64_t b; uint64_t c; uint64_t d; } T;";
  std::vector<std::uint64_t> cycles;
  for (std::uint32_t stages : {1u, 5u}) {
    const std::string spec =
        base +
        "/* @autogen define parser P with input = T, output = T, filters = " +
        std::to_string(stages) + " */";
    PETestBench bench(design_for(spec, "P"));
    std::vector<std::uint8_t> data(256 * 32, 0x5a);
    bench.memory().write_bytes(0, data);
    for (std::uint32_t s = 0; s < stages; ++s) {
      bench.set_filter(s, 0, 6 /* nop */, 0);
    }
    const auto stats =
        bench.run_chunk(0, 16384, static_cast<std::uint32_t>(data.size()));
    EXPECT_EQ(stats.tuples_out, 256u);
    cycles.push_back(stats.cycles);
  }
  // 4 extra stages on 256 tuples: only pipeline-fill latency extra.
  EXPECT_LT(cycles[1], cycles[0] + 64);
}

TEST(PESim, BaselineStaticTransfersFullChunk) {
  const std::string spec =
      "typedef struct { uint64_t a; uint64_t b; } T;"
      "/* @autogen define parser B with chunksize = 32, input = T, "
      "output = T */";
  // Static payload geometry: 2047 tuples * 16 B.
  const auto design = design_for(spec, "B",
                                 hw::DesignFlavor::kHandcraftedBaseline,
                                 2047 * 16);
  PEBenchConfig config;
  config.memory_bytes = 1 << 20;
  PETestBench bench(design, config);
  std::vector<std::uint8_t> data(2047 * 16);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  bench.memory().write_bytes(0, data);
  bench.set_filter(0, 0, 6, 0);
  const auto stats = bench.run_chunk(0, 128 * 1024, 0 /* ignored */);
  EXPECT_EQ(stats.tuples_in, 2047u);
  EXPECT_EQ(stats.tuples_out, 2047u);
  // Static units always move complete 32 KB blocks in AND out.
  EXPECT_EQ(stats.bytes_read, 32u * 1024);
  EXPECT_EQ(stats.bytes_written, 32u * 1024);
  EXPECT_EQ(stats.payload_bytes_out, 2047u * 16);
}

TEST(PESim, ConfigurablePartialBlockSavesBandwidth) {
  const std::string spec =
      "typedef struct { uint64_t a; uint64_t b; } T;"
      "/* @autogen define parser G with chunksize = 32, input = T, "
      "output = T */";
  PETestBench bench(design_for(spec, "G"));
  std::vector<std::uint8_t> data(100 * 16, 0x11);
  bench.memory().write_bytes(0, data);
  bench.set_filter(0, 0, 6, 0);
  const auto stats =
      bench.run_chunk(0, 65536, static_cast<std::uint32_t>(data.size()));
  EXPECT_EQ(stats.tuples_in, 100u);
  // Only the payload crosses the memory interface (plus word rounding).
  EXPECT_LE(stats.bytes_read, data.size() + 8);
  EXPECT_LE(stats.bytes_written, data.size() + 8);
}

TEST(PESim, StartWhileBusyThrows) {
  PETestBench bench(design_for(kPointSpec, "P"));
  const auto points = make_points(512);
  bench.memory().write_bytes(0, points);
  auto& pe = bench.pe();
  const auto& map = pe.regmap();
  pe.mmio_write(map.offset_of(hw::reg::kInSize),
                static_cast<std::uint32_t>(points.size()));
  pe.mmio_write(map.offset_of(hw::reg::kStart), 1);
  bench.kernel().tick();  // PE accepts the start.
  EXPECT_TRUE(pe.busy());
  EXPECT_THROW(pe.mmio_write(map.offset_of(hw::reg::kStart), 1),
               ndpgen::Error);
}

TEST(PESim, SignedFieldComparison) {
  const std::string spec =
      "typedef struct { int32_t temp; uint32_t pad; } T;"
      "/* @autogen define parser S with input = T, output = T */";
  PETestBench bench(design_for(spec, "S"));
  std::vector<std::uint8_t> data;
  for (int t : {-20, -5, 0, 5, 20}) {
    support::put_u32(data, static_cast<std::uint32_t>(t));
    support::put_u32(data, 0);
  }
  bench.memory().write_bytes(0, data);
  // temp < 0 (signed comparison).
  bench.set_filter(0, 0, 4 /* lt */, 0);
  const auto stats =
      bench.run_chunk(0, 4096, static_cast<std::uint32_t>(data.size()));
  EXPECT_EQ(stats.tuples_out, 2u);
}

TEST(PESim, StringPostfixCarriedVerbatim) {
  const std::string spec =
      "typedef struct { uint32_t id; /* @string prefix = 4 */ char s[12]; } "
      "T;"
      "/* @autogen define parser S with input = T, output = T */";
  PETestBench bench(design_for(spec, "S"));
  std::vector<std::uint8_t> data;
  support::put_u32(data, 7);
  for (char c : {'p', 'r', 'e', 'f', 'p', 'o', 's', 't', 'f', 'i', 'x', '!'}) {
    data.push_back(static_cast<std::uint8_t>(c));
  }
  bench.memory().write_bytes(0, data);
  bench.set_filter(0, 0, 6, 0);
  const auto stats =
      bench.run_chunk(0, 4096, static_cast<std::uint32_t>(data.size()));
  EXPECT_EQ(stats.tuples_out, 1u);
  const auto out = bench.memory().read_bytes(4096, 16);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), out.begin()));
}

}  // namespace
}  // namespace ndpgen::hwsim
