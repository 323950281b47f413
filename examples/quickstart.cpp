// Quickstart: the Fig. 4 example end to end.
//
// Compiles the Point3D -> Point2D parser specification, prints the
// generated artifacts, and filters/transforms a handful of points through
// the generated PE on a cycle-level test bench — the same bench (its own
// DRAM, AXI interconnect and kernel) each PE shard of a simulated Cosmos+
// runs.
#include <cstdio>
#include <vector>

#include "core/framework.hpp"
#include "hwsim/pe_sim.hpp"
#include "ndp/predicate.hpp"
#include "support/bytes.hpp"

namespace {

constexpr const char* kSpec = R"spec(
/* @autogen define parser Point3DTo2D with
   chunksize = 32, input = Point3D, output = Point2D,
   mapping = { output.x = input.y, output.y = input.z } */
typedef struct { uint32_t x, y, z; } Point3D;
typedef struct { uint32_t x, y; } Point2D;
)spec";

}  // namespace

int main() {
  using namespace ndpgen;

  // 1. Compile the specification (parse -> contextual analysis ->
  //    template elaboration -> code generation).
  core::Framework framework;
  const core::CompileResult compiled = framework.compile(kSpec);
  const core::ParserArtifacts& pe = compiled.get("Point3DTo2D");

  std::printf("== ndpgen quickstart ==\n");
  std::printf("input layout:\n%s", pe.analyzed.input.dump().c_str());
  std::printf("output layout:\n%s", pe.analyzed.output.dump().c_str());
  std::printf("estimated resources (in-context): %.0f slices, %.1f BRAM\n",
              pe.resources_in_context.total.slices,
              pe.resources_in_context.total.bram36);
  std::printf("generated Verilog: %zu bytes, software interface: %zu bytes\n",
              pe.verilog.size(), pe.software_interface.size());

  // 2. Execute the generated PE on the cycle-level simulator: filter
  //    points with z > 100 and project them to 2-D.
  hwsim::PETestBench bench(pe.design);
  const std::uint32_t in_bytes = pe.analyzed.input.storage_bytes();
  const std::uint32_t out_bytes = pe.analyzed.output.storage_bytes();

  std::vector<std::uint8_t> points;
  for (std::uint32_t i = 0; i < 8; ++i) {
    support::put_u32(points, i);            // x
    support::put_u32(points, 10 * i);       // y
    support::put_u32(points, 50 * i);       // z: 0,50,100,...,350
  }
  bench.memory().write_bytes(0, points);

  const auto bound = ndp::bind_predicate(
      pe.analyzed.input, pe.design.operators,
      ndp::FilterPredicate{"z", "gt", 100});
  bench.set_filter(0, bound.field_select, bound.op_encoding,
                   bound.compare_value);

  const std::uint64_t dst = 16 * 1024;
  const auto stats = bench.run_chunk(0, dst, 8 * in_bytes);
  std::printf("PE processed %llu tuples in %llu cycles; %llu matched\n",
              static_cast<unsigned long long>(stats.tuples_in),
              static_cast<unsigned long long>(stats.cycles),
              static_cast<unsigned long long>(stats.tuples_out));

  for (std::uint64_t i = 0; i < stats.tuples_out; ++i) {
    const auto record =
        bench.memory().read_bytes(dst + i * out_bytes, out_bytes);
    std::printf("  Point2D{ x=%u y=%u }\n", support::get_u32(record, 0),
                support::get_u32(record, 4));
  }
  std::printf("done.\n");
  return 0;
}
