// Fused chunk replay tests: fast mode must produce exactly the state the
// tick-by-tick loop produces — same virtual time, same cycle
// classification, same stats, same memory — only faster.
#include "hwsim/fast_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "hwgen/register_map.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "kv/block_format.hpp"
#include "properties/random_spec.hpp"
#include "query/compiler.hpp"
#include "query/plan_parser.hpp"
#include "query/plan_suite.hpp"
#include "spec/parser.hpp"
#include "support/bytes.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::hwsim {
namespace {

namespace hw = ndpgen::hwgen;

// ---- Fused chunk replay vs exact ticking ------------------------------

hw::PEDesign design_for(const std::string& source, const std::string& name,
                        hw::DesignFlavor flavor = hw::DesignFlavor::kGenerated,
                        bool aggregation = false) {
  const auto module = spec::parse_spec(source);
  hw::TemplateOptions options;
  options.flavor = flavor;
  options.enable_aggregation = aggregation;
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

std::vector<std::uint8_t> to_vec(std::span<const std::uint8_t> bytes) {
  return {bytes.begin(), bytes.end()};
}

void expect_chunk_eq(const ChunkStats& a, const ChunkStats& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.tuples_in, b.tuples_in);
  EXPECT_EQ(a.tuples_out, b.tuples_out);
  EXPECT_EQ(a.payload_bytes_in, b.payload_bytes_in);
  EXPECT_EQ(a.payload_bytes_out, b.payload_bytes_out);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.cycles_useful, b.cycles_useful);
  EXPECT_EQ(a.cycles_stalled, b.cycles_stalled);
  EXPECT_EQ(a.cycles_idle, b.cycles_idle);
  EXPECT_EQ(a.stage_pass_counts, b.stage_pass_counts);
  EXPECT_EQ(a.stage_stall_in, b.stage_stall_in);
  EXPECT_EQ(a.stage_stall_out, b.stage_stall_out);
  EXPECT_EQ(a.agg_result, b.agg_result);
  EXPECT_EQ(a.agg_folded, b.agg_folded);
}

PEBenchConfig bench_config(SimMode mode) {
  PEBenchConfig config;
  config.sim_mode = mode;
  return config;
}

TEST(FastForward, FusedChunkMatchesExactTickingByteForByte) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 8);
    const ChunkStats stats = bench.run_chunk(0, 8192, points.size());
    return std::tuple{stats, to_vec(bench.memory().read_bytes(8192, 24 * 8)),
                      bench.observability().metrics.dump_json(),
                      bench.kernel().now(), bench.kernel().cycle_stats()};
  };
  const auto [se, me, je, ne, ce] = run(SimMode::kExact);
  const auto [sf, mf, jf, nf, cf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);  // Output DRAM image.
  EXPECT_EQ(je, jf);  // Published metrics.
  EXPECT_EQ(ne, nf);  // Virtual clock.
  EXPECT_EQ(ce.useful, cf.useful);
  EXPECT_EQ(ce.stalled, cf.stalled);
  EXPECT_EQ(ce.idle, cf.idle);
}

TEST(FastForward, MultiChunkKeepsCumulativeStateIdentical) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 4 /* lt */, 20);
    ChunkStats last;
    for (int i = 0; i < 3; ++i) {
      last = bench.run_chunk(0, 8192 + i * 4096, points.size());
    }
    return std::tuple{last, bench.kernel().now(),
                      bench.observability().metrics.dump_json()};
  };
  const auto [se, ne, je] = run(SimMode::kExact);
  const auto [sf, nf, jf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(ne, nf);
  EXPECT_EQ(je, jf);
}

TEST(FastForward, AggregateChunkMatchesExact) {
  const std::string spec =
      "typedef struct { uint64_t id; int32_t temp; float reading; } Sensor;"
      "/* @autogen define parser S with input = Sensor, output = Sensor */";
  const auto design =
      design_for(spec, "S", hw::DesignFlavor::kGenerated, true);
  std::vector<std::uint8_t> data;
  for (std::uint32_t i = 0; i < 24; ++i) {
    support::put_u64(data, i);
    support::put_u32(data, static_cast<std::uint32_t>(-40 + 7 * i));
    support::put_u32(data, 0x3F800000u + i);  // float bits
  }
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, data);
    const auto& map = bench.pe().regmap();
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggOp),
                          static_cast<std::uint32_t>(hw::AggOp::kSum));
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggField), 1 /* temp */);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    return bench.run_chunk(0, 8192, static_cast<std::uint32_t>(data.size()));
  };
  const ChunkStats exact = run(SimMode::kExact);
  const ChunkStats fast = run(SimMode::kFast);
  expect_chunk_eq(exact, fast);
  EXPECT_EQ(exact.agg_folded, 24u);
}

TEST(FastForward, SignedAndFloatStagesMatchExact) {
  // No pubgraph workload filters a signed or float field, so this is the
  // check of those compare kernels against exact ticking: every standard
  // kind on an int32_t field, chained with every kind on a double field.
  const std::string spec =
      "typedef struct { uint32_t id; int32_t temp; double level; } Probe;"
      "/* @autogen define parser S with filters = 2, input = Probe, "
      "output = Probe */";
  const auto design = design_for(spec, "S");
  ASSERT_EQ(design.filter_stage_count(), 2u);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double levels[] = {std::numeric_limits<double>::quiet_NaN(),
                           -0.0,
                           0.0,
                           kInf,
                           -kInf,
                           std::numeric_limits<double>::denorm_min(),
                           -2.5,
                           1.25,
                           7.0,
                           -1e300};
  std::vector<std::uint8_t> data;
  for (std::uint32_t i = 0; i < 120; ++i) {
    const std::int32_t temp =
        i % 17 == 0   ? std::numeric_limits<std::int32_t>::min()
        : i % 19 == 0 ? std::numeric_limits<std::int32_t>::max()
                      : -60 + 3 * static_cast<std::int32_t>(i % 41);
    support::put_u32(data, i);
    support::put_u32(data, static_cast<std::uint32_t>(temp));
    support::put_u64(data, std::bit_cast<std::uint64_t>(levels[i % 10]));
  }
  // -9 as a sign-extended 64-bit word (bits above the field set), and a
  // level some tuples hold.
  const auto temp_rhs = static_cast<std::uint64_t>(std::int64_t{-9});
  const auto level_rhs = std::bit_cast<std::uint64_t>(1.25);
  constexpr std::uint64_t kOut = 8192;
  std::uint64_t passed = 0;
  for (const hw::CompareOp& temp_op : design.operators.ops()) {
    for (const hw::CompareOp& level_op : design.operators.ops()) {
      SCOPED_TRACE("temp " + temp_op.name + ", level " + level_op.name);
      auto run = [&](SimMode mode) {
        PETestBench bench(design, bench_config(mode));
        bench.memory().write_bytes(0, data);
        bench.set_filter(0, 1, temp_op.encoding, temp_rhs);
        bench.set_filter(1, 2, level_op.encoding, level_rhs);
        const auto bytes = static_cast<std::uint32_t>(data.size());
        ChunkStats stats;
        if (mode == SimMode::kExact) {
          stats = bench.run_chunk(0, kOut, bytes);
        } else {
          // Fast mode must replay the chunk, not decline it.
          bench.start_chunk(0, kOut, bytes);
          EXPECT_TRUE(FastChunkEngine::run(bench.pe(), 100'000'000));
          stats = bench.pe().last_stats();
        }
        return std::tuple{stats, to_vec(bench.memory().read_bytes(kOut, bytes)),
                          bench.observability().metrics.dump_json(),
                          bench.kernel().now(), bench.kernel().cycle_stats()};
      };
      const auto [se, me, je, ne, ce] = run(SimMode::kExact);
      const auto [sf, mf, jf, nf, cf] = run(SimMode::kFast);
      expect_chunk_eq(se, sf);
      EXPECT_EQ(me, mf);  // Output DRAM image.
      EXPECT_EQ(je, jf);  // Published metrics.
      EXPECT_EQ(ne, nf);  // Virtual clock.
      EXPECT_EQ(ce.useful, cf.useful);
      EXPECT_EQ(ce.stalled, cf.stalled);
      EXPECT_EQ(ce.idle, cf.idle);
      passed += se.tuples_out;
    }
  }
  EXPECT_GT(passed, 0u);
}

TEST(FastForward, StaticBaselinePaddingMatchesExact) {
  const auto design = design_for(kPointSpec, "P",
                                 hw::DesignFlavor::kHandcraftedBaseline);
  const auto points = make_points(2);  // 24 of 32 chunk bytes.
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    const ChunkStats stats =
        bench.run_chunk(0, 8192, static_cast<std::uint32_t>(points.size()));
    return std::pair{stats, to_vec(bench.memory().read_bytes(8192, 32768))};
  };
  const auto [se, me] = run(SimMode::kExact);
  const auto [sf, mf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);
  // The hand-crafted baseline always writes the full 32 KiB chunk,
  // zero-padding past the two real tuples.
  EXPECT_EQ(se.bytes_written, 32768u);
}

TEST(FastForward, BeatCapArbitrationMatchesExact) {
  // Read and write beats share one per-cycle cap, so at caps 1 and 3 the
  // read/write grant order decides every cycle count. Two chunks per bench
  // carry the round-robin state from one chunk into the next.
  const auto points = make_points(400);
  constexpr std::uint64_t kOut = 1 << 20;
  constexpr std::uint64_t kChunkStride = 64 * 1024;
  for (const std::uint32_t cap : {1u, 2u, 3u}) {
    for (const auto flavor : {hw::DesignFlavor::kGenerated,
                              hw::DesignFlavor::kHandcraftedBaseline}) {
      const auto design = design_for(kPointSpec, "P", flavor);
      for (const bool selective : {false, true}) {
        SCOPED_TRACE("cap " + std::to_string(cap) + ", flavor " +
                     std::to_string(static_cast<int>(flavor)) +
                     (selective ? ", selective" : ", all-pass"));
        auto run = [&](SimMode mode) {
          PEBenchConfig config = bench_config(mode);
          config.axi.beats_per_cycle = cap;
          PETestBench bench(design, config);
          bench.memory().write_bytes(0, points);
          bench.set_filter(0, 0, selective ? 3 /* ge */ : 6 /* nop */, 150);
          for (std::uint32_t s = 1; s < design.filter_stage_count(); ++s) {
            bench.set_filter(s, 0, 6 /* nop */, 0);
          }
          std::vector<ChunkStats> stats;
          for (std::uint64_t i = 0; i < 2; ++i) {
            const std::uint64_t dst = kOut + i * kChunkStride;
            const auto bytes = static_cast<std::uint32_t>(points.size());
            if (mode == SimMode::kExact) {
              stats.push_back(bench.run_chunk(0, dst, bytes));
              continue;
            }
            // Fast mode must replay the chunk, not decline it.
            bench.start_chunk(0, dst, bytes);
            EXPECT_TRUE(FastChunkEngine::run(bench.pe(), 100'000'000));
            stats.push_back(bench.pe().last_stats());
          }
          return std::tuple{
              stats, to_vec(bench.memory().read_bytes(kOut, 2 * kChunkStride)),
              bench.observability().metrics.dump_json(), bench.kernel().now()};
        };
        const auto [se, me, je, ne] = run(SimMode::kExact);
        const auto [sf, mf, jf, nf] = run(SimMode::kFast);
        ASSERT_EQ(se.size(), sf.size());
        for (std::size_t i = 0; i < se.size(); ++i) {
          expect_chunk_eq(se[i], sf[i]);
        }
        EXPECT_GT(se.back().tuples_out, 0u);
        EXPECT_EQ(me, mf);  // Output DRAM image.
        EXPECT_EQ(je, jf);  // Published metrics.
        EXPECT_EQ(ne, nf);  // Virtual clock.
      }
    }
  }
}

TEST(FastForward, WatchdogMidChunkFallsBackToIdenticalRaise) {
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(32);
  auto raise_cycle = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 6 /* nop */, 0);
    // Shorter than the AXI read latency: trips during the initial
    // response ramp, mid-fast-forward. The fused engine must detect the
    // horizon and drop back to exact replay, raising at the same cycle.
    bench.kernel().set_watchdog(3);
    std::string message;
    try {
      (void)bench.run_chunk(0, 8192, points.size());
    } catch (const Error& e) {
      message = e.what();
    }
    EXPECT_FALSE(message.empty());
    return std::pair{bench.kernel().now(), message};
  };
  EXPECT_EQ(raise_cycle(SimMode::kExact), raise_cycle(SimMode::kFast));
}

TEST(FastForward, WrappingSourceAddressRaisesInBothModes) {
  // src + length wraps past 2^64: the fused engine declines the chunk and
  // exact ticking must raise on the first read instead of reading outside
  // the bench memory.
  const auto design = design_for(kPointSpec, "P");
  const std::uint64_t src = ~std::uint64_t{0} - 7;  // 2^64 - 8
  for (const SimMode mode : {SimMode::kExact, SimMode::kFast}) {
    PETestBench bench(design, bench_config(mode));
    bench.set_filter(0, 0, 6 /* nop */, 0);
    try {
      (void)bench.run_chunk(src, 8192, 24);
      ADD_FAILURE() << "chunk at 2^64 - 8 did not raise";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInvalidArg) << e.what();
    }
  }
}

TEST(FastForward, ForeignModuleForcesExactFallbackWithSameResults) {
  // An unknown module type in the kernel is a structural boundary: the
  // fused engine must refuse and the exact path must still produce the
  // canonical results.
  class OpaqueModule final : public Module {
   public:
    OpaqueModule() : Module("opaque") {}
    void cycle(std::uint64_t) override {}
  };
  const auto design = design_for(kPointSpec, "P");
  const auto points = make_points(16);
  auto run = [&](SimMode mode, bool add_foreign) {
    PETestBench bench(design, bench_config(mode));
    OpaqueModule opaque;
    if (add_foreign) bench.kernel().add_module(&opaque);
    bench.memory().write_bytes(0, points);
    bench.set_filter(0, 0, 3 /* ge */, 4);
    const ChunkStats stats = bench.run_chunk(0, 4096, points.size());
    return std::pair{stats, to_vec(bench.memory().read_bytes(4096, 12 * 8))};
  };
  const auto [se, me] = run(SimMode::kExact, false);
  const auto [sf, mf] = run(SimMode::kFast, true);
  expect_chunk_eq(se, sf);
  EXPECT_EQ(me, mf);
}

TEST(FastForward, FusedEngineAppliesToEveryStockDesign) {
  // A declined chunk costs full exact ticking, yet still matches exact
  // mode: only this test sees a decline. Each shipped design runs one
  // full data block, programmed with the register writes run_chunk makes.
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 4096});
  auto expect_fused = [&](const hw::PEDesign& design, bool papers,
                          hw::AggOp agg = hw::AggOp::kNone) {
    const std::uint32_t records =
        kv::records_per_block(design.parser.input.storage_bytes());
    std::vector<std::uint8_t> payload;
    for (std::uint64_t i = 0; i < records; ++i) {
      const auto record = papers ? generator.paper(i).serialize()
                                 : generator.ref(i).serialize();
      payload.insert(payload.end(), record.begin(), record.end());
    }
    PEBenchConfig config = bench_config(SimMode::kFast);
    config.memory_bytes = 2 * kv::kDataBlockBytes;
    PETestBench bench(design, config);
    bench.memory().write_bytes(0, payload);
    bench.set_filter(0, 0, 2 /* gt */, 5);
    for (std::uint32_t s = 1; s < design.filter_stage_count(); ++s) {
      bench.set_filter(s, 0, 6 /* nop */, 0);
    }
    if (agg != hw::AggOp::kNone) {
      const auto& map = bench.pe().regmap();
      bench.pe().mmio_write(map.offset_of(hw::reg::kAggOp),
                            static_cast<std::uint32_t>(agg));
      bench.pe().mmio_write(map.offset_of(hw::reg::kAggField), 1);
    }
    bench.start_chunk(0, kv::kDataBlockBytes,
                      static_cast<std::uint32_t>(payload.size()));
    EXPECT_TRUE(FastChunkEngine::run(bench.pe(), 100'000'000));
    EXPECT_EQ(bench.pe().last_stats().tuples_in, records);
  };
  const std::string pubgraph = workload::pubgraph_spec_source();
  expect_fused(design_for(pubgraph, "PaperScan"), true);
  expect_fused(design_for(pubgraph, "RefScan"), false);
  expect_fused(design_for(pubgraph, "PaperScan", hw::DesignFlavor::kGenerated,
                          true),
               true, hw::AggOp::kSum);

  const auto paper_scan =
      analysis::analyze_parser(spec::parse_spec(pubgraph), "PaperScan");
  hw::TemplateOptions baseline;
  baseline.flavor = hw::DesignFlavor::kHandcraftedBaseline;
  baseline.static_payload_bytes =
      kv::records_per_block(paper_scan.input.storage_bytes()) *
      paper_scan.input.storage_bytes();
  expect_fused(hw::build_pe_design(paper_scan, baseline), true);

  const auto plan = query::compile_plan(
      query::parse_plan(query::find_plan("recent_top")->source).value());
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  const query::LeafPipeline& leaf = plan.value().probe;
  ASSERT_EQ(leaf.dataset, workload::Dataset::kPapers);
  ASSERT_TRUE(leaf.offloaded);
  expect_fused(design_for(leaf.spec_source, leaf.parser_name), true);
}

// ---- Long chunks: the span automaton vs exact ticking -------------------

/// One full data block of generated records whose filter fields are
/// rewritten so that tuple i passes stage s exactly when pass[s][i]: the
/// field reads 1 to pass `lt 500` and 1000 to fail it.
std::vector<std::uint8_t> long_chunk_payload(
    const hw::PEDesign& design, bool papers,
    const std::vector<std::string>& fields,
    const std::vector<std::vector<bool>>& pass) {
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 4096});
  const analysis::TupleLayout& layout = design.parser.input;
  const std::uint32_t bytes = layout.storage_bytes();
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < pass[0].size(); ++i) {
    const auto record =
        papers ? generator.paper(i).serialize() : generator.ref(i).serialize();
    payload.insert(payload.end(), record.begin(), record.end());
  }
  for (std::size_t s = 0; s < fields.size(); ++s) {
    const auto& field = layout.fields[layout.find_field(fields[s]).value()];
    for (std::uint64_t i = 0; i < pass[s].size(); ++i) {
      std::uint64_t value = pass[s][i] ? 1 : 1000;
      const std::uint64_t at = i * bytes + field.storage_offset_bits / 8;
      for (std::uint32_t b = 0; b < field.storage_width_bits / 8; ++b) {
        payload[at + b] = static_cast<std::uint8_t>(value);
        value >>= 8;
      }
    }
  }
  return payload;
}

/// Everything a chunk run leaves behind that exact and fast must agree on.
struct LongChunkRun {
  bool fused = false;
  std::string error;
  ChunkStats stats;
  std::vector<std::uint8_t> image;
  std::string metrics;
  std::uint64_t now = 0;
  CycleStats cycles;
};

/// Runs one chunk of `payload` with stage s filtering `fields[s] lt 500`
/// (later stages pass all) under a `max_cycles` deadline and a watchdog.
LongChunkRun run_long_chunk(const hw::PEDesign& design, SimMode mode,
                            std::uint32_t cap,
                            const std::vector<std::string>& fields,
                            const std::vector<std::uint8_t>& payload,
                            hw::AggOp agg, std::uint64_t max_cycles,
                            std::uint64_t watchdog) {
  constexpr std::uint64_t kOut = 2 * kv::kDataBlockBytes;
  PEBenchConfig config = bench_config(mode);
  config.axi.beats_per_cycle = cap;
  config.memory_bytes = 4 * kv::kDataBlockBytes;
  PETestBench bench(design, config);
  bench.memory().write_bytes(0, payload);
  const analysis::TupleLayout& layout = design.parser.input;
  const auto relevant = layout.relevant_indices();
  for (std::uint32_t s = 0; s < design.filter_stage_count(); ++s) {
    if (s >= fields.size()) {
      bench.set_filter(s, 0, 6 /* nop */, 0);
      continue;
    }
    const std::size_t index = layout.find_field(fields[s]).value();
    const auto select = static_cast<std::uint32_t>(
        std::find(relevant.begin(), relevant.end(), index) - relevant.begin());
    bench.set_filter(s, select, 4 /* lt */, 500);
  }
  if (agg != hw::AggOp::kNone) {
    const auto& map = bench.pe().regmap();
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggOp),
                          static_cast<std::uint32_t>(agg));
    bench.pe().mmio_write(map.offset_of(hw::reg::kAggField), 1);
  }
  bench.kernel().set_watchdog(watchdog);
  bench.start_chunk(0, kOut, static_cast<std::uint32_t>(payload.size()));
  LongChunkRun run;
  try {
    run.fused = mode == SimMode::kFast &&
                FastChunkEngine::run(bench.pe(), max_cycles);
    if (!run.fused) {
      (void)bench.kernel().run_until([&] { return !bench.pe().busy(); },
                                     max_cycles);
    }
  } catch (const Error& e) {
    run.error = e.what();
  }
  run.stats = bench.pe().last_stats();
  run.image = to_vec(bench.memory().read_bytes(kOut, kv::kDataBlockBytes));
  run.metrics = bench.observability().metrics.dump_json();
  run.now = bench.kernel().now();
  run.cycles = bench.kernel().cycle_stats();
  return run;
}

void expect_long_chunk_eq(const LongChunkRun& exact,
                          const LongChunkRun& fast) {
  EXPECT_EQ(exact.error, fast.error);
  expect_chunk_eq(exact.stats, fast.stats);
  EXPECT_EQ(exact.image, fast.image);  // Output DRAM image.
  EXPECT_EQ(exact.metrics, fast.metrics);
  EXPECT_EQ(exact.now, fast.now);  // Virtual clock.
  EXPECT_EQ(exact.cycles.useful, fast.cycles.useful);
  EXPECT_EQ(exact.cycles.stalled, fast.cycles.stalled);
  EXPECT_EQ(exact.cycles.idle, fast.cycles.idle);
}

struct LongChunkDesign {
  std::string name;
  hw::PEDesign design;
  bool papers;
  std::vector<std::string> fields;  ///< Filtered field per stage.
  hw::AggOp agg = hw::AggOp::kNone;
};

std::vector<LongChunkDesign> long_chunk_designs() {
  const std::string pubgraph = workload::pubgraph_spec_source();
  const auto paper_scan =
      analysis::analyze_parser(spec::parse_spec(pubgraph), "PaperScan");
  hw::TemplateOptions baseline;
  baseline.flavor = hw::DesignFlavor::kHandcraftedBaseline;
  baseline.static_payload_bytes =
      kv::records_per_block(paper_scan.input.storage_bytes()) *
      paper_scan.input.storage_bytes();
  return {
      {"PaperScan", design_for(pubgraph, "PaperScan"), true, {"year"}},
      {"RefScan", design_for(pubgraph, "RefScan"), false, {"src", "dst"}},
      {"PaperScan aggregate",
       design_for(pubgraph, "PaperScan", hw::DesignFlavor::kGenerated, true),
       true,
       {"year"},
       hw::AggOp::kSum},
      {"PaperScan static baseline", hw::build_pe_design(paper_scan, baseline),
       true,
       {"year"}},
  };
}

/// Decision patterns over a block's tuples, by name.
std::vector<std::pair<std::string, std::vector<bool>>> long_chunk_patterns(
    std::uint64_t tuples) {
  support::Xoshiro256 rng(23);
  std::vector<std::pair<std::string, std::vector<bool>>> patterns = {
      {"all-pass", std::vector<bool>(tuples, true)},
      {"all-drop", std::vector<bool>(tuples, false)},
      {"alternating", {}},
      {"random 30%", {}},
      {"long runs", {}}};
  for (std::uint64_t i = 0; i < tuples; ++i) {
    patterns[2].second.push_back(i % 2 == 0);
    patterns[3].second.push_back(rng() % 10 < 3);
    patterns[4].second.push_back((i / 37) % 3 != 0);
  }
  return patterns;
}

TEST(FastForward, LongChunkSpanReplayMatchesExact) {
  // Full 32 KiB blocks repeat a handful of tuple spans hundreds of times,
  // so nearly every tuple of the fast run replays from the span automaton.
  for (const LongChunkDesign& d : long_chunk_designs()) {
    const std::uint64_t tuples =
        kv::records_per_block(d.design.parser.input.storage_bytes());
    for (const auto& [pattern, pass] : long_chunk_patterns(tuples)) {
      // Later stages see the pattern shifted by one tuple.
      std::vector<std::vector<bool>> stages(d.fields.size(), pass);
      for (std::size_t s = 1; s < stages.size(); ++s) {
        std::rotate(stages[s].begin(), stages[s].begin() + 1, stages[s].end());
      }
      const auto payload =
          long_chunk_payload(d.design, d.papers, d.fields, stages);
      for (const std::uint32_t cap : {1u, 2u, 3u}) {
        SCOPED_TRACE(d.name + ", " + pattern + ", cap " +
                     std::to_string(cap));
        const auto run = [&](SimMode mode) {
          return run_long_chunk(d.design, mode, cap, d.fields, payload, d.agg,
                                100'000'000, 0);
        };
        const LongChunkRun exact = run(SimMode::kExact);
        const LongChunkRun fast = run(SimMode::kFast);
        EXPECT_TRUE(fast.fused);
        EXPECT_EQ(exact.stats.tuples_in, tuples);
        expect_long_chunk_eq(exact, fast);
      }
    }
  }
}

TEST(FastForward, LongChunkHorizonsInsideReplayedSpansMatchExact) {
  // A deadline or watchdog that falls mid-block must stop the fast run at
  // the cycle exact ticking raises at, not at the end of a replayed span.
  // The static baseline ends its block with a zero-pad drain of a few
  // thousand ticks; every deadline from cycles - 1500 on falls inside it.
  const std::vector<LongChunkDesign> designs = long_chunk_designs();
  for (const std::size_t index : {1u, 3u}) {  // RefScan, static baseline.
    const LongChunkDesign& d = designs[index];
    SCOPED_TRACE(d.name);
    const std::uint64_t tuples =
        kv::records_per_block(d.design.parser.input.storage_bytes());
    const auto pass = long_chunk_patterns(tuples)[3].second;  // random 30%
    const auto payload = long_chunk_payload(
        d.design, d.papers, d.fields,
        std::vector<std::vector<bool>>(d.fields.size(), pass));
    const auto run = [&](SimMode mode, std::uint64_t max_cycles,
                         std::uint64_t watchdog) {
      return run_long_chunk(d.design, mode, 1, d.fields, payload, d.agg,
                            max_cycles, watchdog);
    };
    const std::uint64_t cycles = run(SimMode::kExact, 100'000'000, 0).now;
    ASSERT_GT(cycles, 1500u);
    for (const std::uint64_t horizon :
         {cycles / 3, cycles / 2, cycles - 1500, cycles - 700, cycles - 40,
          cycles - 2, cycles - 1, cycles}) {
      SCOPED_TRACE("max_cycles " + std::to_string(horizon));
      const LongChunkRun exact = run(SimMode::kExact, horizon, 0);
      const LongChunkRun fast = run(SimMode::kFast, horizon, 0);
      EXPECT_EQ(exact.error.empty(), horizon >= cycles);
      expect_long_chunk_eq(exact, fast);
    }
    // The watchdog trips during the read-latency ramp, in the static
    // baseline's pad drain (it moves no stream) or never: every span node
    // is a tuple push, which restarts the stall count.
    for (const std::uint64_t watchdog : {4u, 20u, 21u, 22u, 23u, 32u}) {
      SCOPED_TRACE("watchdog " + std::to_string(watchdog));
      const LongChunkRun exact = run(SimMode::kExact, 100'000'000, watchdog);
      const LongChunkRun fast = run(SimMode::kFast, 100'000'000, watchdog);
      EXPECT_EQ(fast.fused, exact.error.empty());
      expect_long_chunk_eq(exact, fast);
    }
  }
}

TEST(FastForward, SelfLoopRunsEndWhereExactTickingDoes) {
  // 16-byte edges settle into one span per tuple, so a run of equal
  // decisions replays as a single self-loop run. The sweep over tuple
  // counts, beat caps and stage counts ends runs at the last word request
  // and at a decision that flips, in the middle or on the last tuple. The
  // word-push and payload guards are checked on every run too; in a
  // self-loop they advance by the same delta as the request guard, which
  // the words in flight keep ahead, so a run never stops at them first.
  const std::string edge_struct =
      "typedef struct { uint64_t src; uint64_t dst; } Edge;";
  const std::vector<std::string> fields = {"src", "dst", "src"};
  for (std::uint32_t stages = 1; stages <= 3; ++stages) {
    const hw::PEDesign design = design_for(
        "/* @autogen define parser E with chunksize = 32, input = Edge, "
        "output = Edge, filters = " + std::to_string(stages) + " */" +
            edge_struct,
        "E");
    ASSERT_EQ(design.parser.input.storage_bytes(), 16u);
    const std::vector<std::string> staged(fields.begin(),
                                          fields.begin() + stages);
    for (const std::uint64_t tuples : {1u, 2u, 3u, 5u, 64u, 301u, 2047u}) {
      for (const auto& [pattern, first, flip] :
           {std::tuple{"all-pass", true, tuples},
            std::tuple{"all-drop", false, tuples},
            std::tuple{"pass, last drops", true, tuples - 1},
            std::tuple{"drop, last passes", false, tuples - 1},
            std::tuple{"pass, middle drops", true, tuples / 2},
            std::tuple{"drop, middle passes", false, tuples / 2}}) {
        // The last stage sees the flipped decision (none at `tuples`);
        // earlier ones see the run only.
        std::vector<std::vector<bool>> per_stage(
            stages, std::vector<bool>(tuples, first));
        if (flip < tuples) per_stage.back()[flip] = !first;
        const auto payload =
            long_chunk_payload(design, false, staged, per_stage);
        for (const std::uint32_t cap : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::to_string(stages) + " stages, " +
                       std::to_string(tuples) + " tuples, " + pattern +
                       ", cap " + std::to_string(cap));
          const auto run = [&](SimMode mode) {
            return run_long_chunk(design, mode, cap, staged, payload,
                                  hw::AggOp::kNone, 100'000'000, 0);
          };
          const LongChunkRun exact = run(SimMode::kExact);
          const LongChunkRun fast = run(SimMode::kFast);
          EXPECT_TRUE(fast.fused);
          EXPECT_EQ(exact.stats.tuples_in, tuples);
          expect_long_chunk_eq(exact, fast);
        }
      }
    }
  }
}

// ---- One bench, many chunks: the PE's span automaton across chunks ----

/// One step of a bench's life: program registers, reset the kernel as an
/// executor call does, or run a chunk (under a deadline, if set).
struct BenchStep {
  enum class Kind { kFilter, kAggregate, kReset, kWatchdog, kChunk } kind;
  std::uint32_t op = 0;         ///< kFilter: encoding; kAggregate: AggOp.
  std::uint64_t value = 0;      ///< kFilter: compare word; kWatchdog.
  std::size_t payload = 0;      ///< kChunk: index into the payloads.
  std::uint32_t bytes = 0;      ///< kChunk: payload bytes.
  std::uint64_t max_cycles = 100'000'000;  ///< kChunk deadline.
  bool warm = false;  ///< kChunk: the PE has ticked every span of it.
};

/// What one chunk step leaves behind.
struct StepResult {
  bool fused = false;
  std::string error;
  ChunkStats stats;
  std::vector<std::uint8_t> image;
  std::string metrics;
  std::vector<std::size_t> high_water;  ///< Per kernel stream.
  std::uint64_t now = 0;
  CycleStats cycles;
  bool warm = false;
  std::size_t spans = 0;  ///< Nodes and edges the PE's span memo holds.
};

/// Runs `steps` on one bench of `design` in `mode` and returns every
/// chunk step's result. Stage 0 filters the field `field` selects; later
/// stages pass all.
std::vector<StepResult> run_steps(const hw::PEDesign& design, SimMode mode,
                                  std::uint32_t field,
                                  const std::vector<std::vector<std::uint8_t>>&
                                      payloads,
                                  const std::vector<BenchStep>& steps) {
  constexpr std::uint64_t kOut = kv::kDataBlockBytes;
  PEBenchConfig config = bench_config(mode);
  config.memory_bytes = 2 * kv::kDataBlockBytes;
  PETestBench bench(design, config);
  const auto& map = bench.pe().regmap();
  std::vector<StepResult> results;
  for (const BenchStep& step : steps) {
    switch (step.kind) {
      case BenchStep::Kind::kFilter:
        bench.set_filter(0, field, step.op, step.value);
        for (std::uint32_t s = 1; s < design.filter_stage_count(); ++s) {
          bench.set_filter(s, 0, 6 /* nop */, 0);
        }
        continue;
      case BenchStep::Kind::kAggregate:
        bench.pe().mmio_write(map.offset_of(hw::reg::kAggOp), step.op);
        bench.pe().mmio_write(map.offset_of(hw::reg::kAggField), 1);
        continue;
      case BenchStep::Kind::kReset:
        // PeShard::begin_call: the kernel restarts at cycle 0 with empty
        // streams and registers; metric values restart too.
        bench.kernel().reset();
        bench.observability().metrics.reset_values();
        continue;
      case BenchStep::Kind::kWatchdog:
        bench.kernel().set_watchdog(step.value);
        continue;
      case BenchStep::Kind::kChunk:
        break;
    }
    const std::vector<std::uint8_t>& payload = payloads[step.payload];
    bench.memory().write_bytes(0, std::span(payload).first(step.bytes));
    bench.start_chunk(0, kOut, step.bytes);
    StepResult result;
    try {
      result.fused = mode == SimMode::kFast &&
                     FastChunkEngine::run(bench.pe(), step.max_cycles);
      if (!result.fused) {
        (void)bench.kernel().run_until([&] { return !bench.pe().busy(); },
                                       step.max_cycles);
      }
    } catch (const Error& e) {
      result.error = e.what();
    }
    result.stats = bench.pe().last_stats();
    result.image = to_vec(bench.memory().read_bytes(kOut, kv::kDataBlockBytes));
    result.metrics = bench.observability().metrics.dump_json();
    for (const auto& stream : bench.kernel().streams()) {
      result.high_water.push_back(stream->high_water());
    }
    result.now = bench.kernel().now();
    result.cycles = bench.kernel().cycle_stats();
    result.warm = step.warm;
    result.spans = bench.pe().spans().nodes() + bench.pe().spans().edges();
    results.push_back(std::move(result));
  }
  return results;
}

TEST(FastForward, SpanAutomatonOutlivesTheChunk) {
  // The PE keeps its span automaton from chunk to chunk, so a span ticked
  // in one chunk replays in later ones: across block sizes, predicates,
  // aggregate settings, kernel resets and declined chunks. Every chunk of
  // the fast bench must leave what the exact bench leaves, FIFO high-water
  // marks included (a replayed span raises them to its recorded peaks).
  const std::string pubgraph = workload::pubgraph_spec_source();
  const auto paper_scan =
      analysis::analyze_parser(spec::parse_spec(pubgraph), "PaperScan");
  hw::TemplateOptions baseline;
  baseline.flavor = hw::DesignFlavor::kHandcraftedBaseline;
  baseline.static_payload_bytes =
      kv::records_per_block(paper_scan.input.storage_bytes()) *
      paper_scan.input.storage_bytes();
  const std::vector<LongChunkDesign> designs = {
      {"PaperScan aggregate",
       design_for(pubgraph, "PaperScan", hw::DesignFlavor::kGenerated, true),
       true,
       {"year"}},
      {"PaperScan static baseline", hw::build_pe_design(paper_scan, baseline),
       true,
       {"year"}},
  };
  using Kind = BenchStep::Kind;
  for (const LongChunkDesign& d : designs) {
    SCOPED_TRACE(d.name);
    const analysis::TupleLayout& layout = d.design.parser.input;
    const std::uint32_t tuple_bytes = layout.storage_bytes();
    const std::uint64_t tuples = kv::records_per_block(tuple_bytes);
    const auto full = static_cast<std::uint32_t>(tuples * tuple_bytes);
    std::vector<std::vector<std::uint8_t>> payloads;
    for (const auto& pattern : long_chunk_patterns(tuples)) {
      payloads.push_back(
          long_chunk_payload(d.design, d.papers, d.fields, {pattern.second}));
    }
    const auto relevant = layout.relevant_indices();
    const auto field = static_cast<std::uint32_t>(
        std::find(relevant.begin(), relevant.end(),
                  layout.find_field("year").value()) -
        relevant.begin());
    const bool generated = d.design.flavor == hw::DesignFlavor::kGenerated;
    // A static PE always reads its full block.
    const auto bytes = [&](std::uint64_t n) {
      return generated ? static_cast<std::uint32_t>(n * tuple_bytes) : full;
    };
    const BenchStep lt500{Kind::kFilter, 4 /* lt */, 500};
    std::vector<BenchStep> steps = {lt500};
    if (generated) steps.push_back({Kind::kAggregate, 1 /* kSum */});
    const std::vector<BenchStep> chunks = {
        {Kind::kChunk, 0, 0, 3, full},     // random 30%
        {Kind::kChunk, 0, 0, 4, full},     // long runs
        {Kind::kChunk, 0, 0, 3, full},     // warm: every span seen
        {Kind::kChunk, 0, 0, 2, bytes(100)},  // partial last block
        {Kind::kChunk, 0, 0, 3, bytes(2)},    // shorter than the ramp
        {Kind::kChunk, 0, 0, 3, bytes(2)},
    };
    steps.insert(steps.end(), chunks.begin(), chunks.end());
    steps.push_back({Kind::kFilter, 2 /* gt */, 500});  // Inverts decisions.
    steps.push_back({Kind::kChunk, 0, 0, 3, full});
    if (generated) {
      steps.push_back({Kind::kAggregate, 0 /* kNone */});
      steps.push_back({Kind::kChunk, 0, 0, 4, full});
      steps.push_back({Kind::kChunk, 0, 0, 3, bytes(100)});
    }
    // A new call: the kernel restarts from cycle 0 and the registers from
    // zero. The first chunk again replays every span, ramp to finish.
    steps.push_back({Kind::kReset});
    steps.push_back(lt500);
    if (generated) steps.push_back({Kind::kAggregate, 1 /* kSum */});
    steps.push_back({Kind::kChunk, 0, 0, 3, full, 100'000'000, true});
    steps.push_back({Kind::kChunk, 0, 0, 3, bytes(2)});
    // Declines: a deadline inside the chunk, then a watchdog in the read
    // ramp; each leaves the PE mid-run, so a reset follows.
    steps.push_back({Kind::kChunk, 0, 0, 4, full, 900});
    steps.push_back({Kind::kReset});
    steps.push_back(lt500);
    steps.push_back({Kind::kWatchdog, 0, 3});
    steps.push_back({Kind::kChunk, 0, 0, 3, full});
    steps.push_back({Kind::kReset});
    steps.push_back(lt500);
    steps.push_back({Kind::kWatchdog, 0, 0});
    steps.push_back({Kind::kChunk, 0, 0, 4, full});
    steps.push_back({Kind::kChunk, 0, 0, 1, full});  // all-drop

    const auto exact = run_steps(d.design, SimMode::kExact, field, payloads,
                                 steps);
    const auto fast = run_steps(d.design, SimMode::kFast, field, payloads,
                                steps);
    ASSERT_EQ(exact.size(), fast.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      SCOPED_TRACE("chunk step " + std::to_string(i));
      const StepResult& e = exact[i];
      const StepResult& f = fast[i];
      EXPECT_EQ(f.fused, e.error.empty());
      EXPECT_EQ(e.error, f.error);
      expect_chunk_eq(e.stats, f.stats);
      EXPECT_EQ(e.image, f.image);  // Output DRAM image.
      EXPECT_EQ(e.metrics, f.metrics);
      EXPECT_EQ(e.high_water, f.high_water);
      EXPECT_EQ(e.now, f.now);  // Virtual clock.
      EXPECT_EQ(e.cycles.useful, f.cycles.useful);
      EXPECT_EQ(e.cycles.stalled, f.cycles.stalled);
      EXPECT_EQ(e.cycles.idle, f.cycles.idle);
      // A warm chunk ticks nothing, so the PE learns no span.
      if (f.warm) EXPECT_EQ(f.spans, fast[i - 1].spans);
    }
    // Two declines; every other chunk replays.
    EXPECT_EQ(std::count_if(exact.begin(), exact.end(),
                            [](const StepResult& r) {
                              return !r.error.empty();
                            }),
              2);
  }
}

// ---- Output plane: the record plan's projection vs the exact datapath -

/// Runs `payload` through `design` in both modes — stage 0 applies
/// (field 0, `op`, `value`), every later stage passes all — and expects
/// the same output DRAM image (well past the written bytes), ChunkStats
/// and metrics. The fast run must be the fused replay, which projects
/// survivors through the parser's record plan.
void expect_output_plane_matches_exact(const hw::PEDesign& design,
                                       const std::vector<std::uint8_t>& payload,
                                       std::uint32_t op, std::uint64_t value) {
  constexpr std::uint64_t kOut = 1 << 20;
  auto run = [&](SimMode mode) {
    PETestBench bench(design, bench_config(mode));
    bench.memory().write_bytes(0, payload);
    bench.set_filter(0, 0, op, value);
    for (std::uint32_t s = 1; s < design.filter_stage_count(); ++s) {
      bench.set_filter(s, 0, 6 /* nop */, 0);
    }
    const auto size = static_cast<std::uint32_t>(payload.size());
    ChunkStats stats;
    if (mode == SimMode::kFast) {
      bench.start_chunk(0, kOut, size);
      EXPECT_TRUE(FastChunkEngine::run(bench.pe(), 100'000'000));
      stats = bench.pe().last_stats();
    } else {
      stats = bench.run_chunk(0, kOut, size);
    }
    return std::tuple{stats,
                      to_vec(bench.memory().read_bytes(kOut, 64 * 1024)),
                      bench.observability().metrics.dump_json()};
  };
  const auto [se, me, je] = run(SimMode::kExact);
  const auto [sf, mf, jf] = run(SimMode::kFast);
  expect_chunk_eq(se, sf);
  EXPECT_GT(se.tuples_out, 0u);
  EXPECT_EQ(me, mf);
  EXPECT_EQ(je, jf);
}

std::vector<std::uint8_t> random_bytes(support::Xoshiro256& rng,
                                       std::size_t count) {
  std::vector<std::uint8_t> bytes(count);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(FastForward, RefsIdentityOutputPlaneMatchesExact) {
  const auto design =
      design_for(workload::pubgraph_spec_source(), "RefScan");
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 65536});
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto record = generator.ref(i).serialize();
    payload.insert(payload.end(), record.begin(), record.end());
  }
  expect_output_plane_matches_exact(design, payload, 2 /* gt */, 5);
}

TEST(FastForward, PaperProjectionOutputPlaneMatchesExact) {
  // Paper carries a 104-byte title; the projection to PaperResult drops
  // it.
  const auto design =
      design_for(workload::pubgraph_spec_source(), "PaperScan");
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 65536});
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const auto record = generator.paper(i).serialize();
    payload.insert(payload.end(), record.begin(), record.end());
  }
  expect_output_plane_matches_exact(design, payload, 2 /* gt */, 3);
}

TEST(FastForward, ReorderedDuplicatingMappingMatchesExact) {
  const std::string spec =
      "/* @autogen define parser R with chunksize = 32, input = Wide, "
      "output = Shuffled, mapping = { output.a = input.z, "
      "output.b = input.x, output.c = input.y, output.d = input.x } */"
      "typedef struct { uint64_t x; uint16_t y; uint32_t z; } Wide;"
      "typedef struct { uint32_t a; uint64_t b; uint16_t c; uint64_t d; } "
      "Shuffled;";
  const auto design = design_for(spec, "R");
  support::Xoshiro256 rng(42);
  expect_output_plane_matches_exact(design, random_bytes(rng, 14 * 60),
                                    2 /* gt */, 1ull << 62);
}

TEST(FastForward, RandomSpecOutputPlanesMatchExact) {
  for (std::uint64_t seed = 0; seed <= 8; ++seed) {
    support::Xoshiro256 rng(seed);
    for (int iteration = 0; iteration < 4; ++iteration) {
      const std::string source = test_support::random_spec(rng, 8);
      SCOPED_TRACE("seed " + std::to_string(seed) + "\n" + source);
      const auto design = design_for(source, "P");
      const std::uint32_t tuple_bytes = design.parser.input.storage_bytes();
      expect_output_plane_matches_exact(
          design, random_bytes(rng, std::size_t{tuple_bytes} * 24),
          0 /* ne */, 0);
    }
  }
}

}  // namespace
}  // namespace ndpgen::hwsim
