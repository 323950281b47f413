// Ablation (§IV-B "Memory Interface"): configurable partial-block
// Load/Store units vs the fully static 32 KB units of [1].
//
// "Due to the Data Transformation step ... the output is almost always
// smaller than 32 KByte. As memory contention is a major bottleneck,
// reducing the number of memory accesses will improve the performance."
// We run a projecting scan (Paper -> PaperResult drops the 104-byte title
// payload) and compare bytes moved across the AXI memory interface plus
// the resulting cycle counts under a constrained interconnect.
#include <cstdio>

#include "bench_common.hpp"
#include "core/framework.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "kv/block_format.hpp"
#include "workload/pubgraph.hpp"

using namespace ndpgen;

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation — configurable vs static Load/Store units\n");
  std::printf("==============================================================\n\n");

  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
  const auto& artifacts = compiled.get("PaperScan");

  // One partially-filled data block: 200 of 255 possible Paper records.
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 4096});
  std::vector<std::uint8_t> payload;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto record = generator.paper(i).serialize();
    payload.insert(payload.end(), record.begin(), record.end());
  }

  struct Row {
    const char* name;
    std::uint64_t bytes_read, bytes_written, cycles, tuples;
  };
  Row rows[2];
  for (int variant = 0; variant < 2; ++variant) {
    hwgen::TemplateOptions options;
    if (variant == 1) {
      options.flavor = hwgen::DesignFlavor::kHandcraftedBaseline;
      // Static geometry assumes fully packed blocks; the 200-record block
      // is processed as-is by [1]'s static unit (it always moves 32 KB).
      options.static_payload_bytes =
          static_cast<std::uint32_t>(payload.size());
    }
    const auto design = hwgen::build_pe_design(artifacts.analyzed, options);
    hwsim::PEBenchConfig bench_config;
    bench_config.axi.beats_per_cycle = 1;  // Constrained: contention hurts.
    hwsim::PETestBench bench(design, bench_config);
    bench.memory().write_bytes(0, payload);
    bench.set_filter(0, 1 /* year */, 4 /* lt */, 2100);  // All pass.
    const auto stats = bench.run_chunk(
        0, 128 * 1024, static_cast<std::uint32_t>(payload.size()));
    rows[variant] = Row{variant == 0 ? "configurable (ours)" : "static [1]",
                        stats.bytes_read, stats.bytes_written, stats.cycles,
                        stats.tuples_out};
  }

  bench::JsonResult json("ablation_loadstore");
  std::printf("%-22s %12s %14s %10s %8s\n", "load/store units", "read [B]",
              "written [B]", "cycles", "tuples");
  for (const auto& row : rows) {
    std::printf("%-22s %12llu %14llu %10llu %8llu\n", row.name,
                static_cast<unsigned long long>(row.bytes_read),
                static_cast<unsigned long long>(row.bytes_written),
                static_cast<unsigned long long>(row.cycles),
                static_cast<unsigned long long>(row.tuples));
    json.add(row.name, "bytes_read", static_cast<double>(row.bytes_read));
    json.add(row.name, "bytes_written",
             static_cast<double>(row.bytes_written));
    json.add(row.name, "cycles", static_cast<double>(row.cycles), "cycles");
    json.add(row.name, "tuples", static_cast<double>(row.tuples));
  }
  json.write();

  const double traffic_saving =
      1.0 - static_cast<double>(rows[0].bytes_read + rows[0].bytes_written) /
                static_cast<double>(rows[1].bytes_read +
                                    rows[1].bytes_written);
  std::printf("\n  [%c] configurable units reduce memory traffic by %.1f%%\n",
              traffic_saving > 0 ? 'x' : ' ', 100.0 * traffic_saving);
  std::printf("  [%c] and finish the block in fewer cycles under "
              "contention (%llu vs %llu)\n",
              rows[0].cycles < rows[1].cycles ? 'x' : ' ',
              static_cast<unsigned long long>(rows[0].cycles),
              static_cast<unsigned long long>(rows[1].cycles));
  return traffic_saving > 0 ? 0 : 1;
}
