// Tests for ArmCoreModel, NvmeLink and CosmosPlatform.
#include <gtest/gtest.h>

#include "hwgen/template_builder.hpp"
#include "platform/cosmos.hpp"
#include "spec/parser.hpp"
#include "support/error.hpp"

namespace ndpgen::platform {
namespace {

namespace hw = ndpgen::hwgen;

TEST(ArmCore, ChargesAdvanceTime) {
  EventQueue queue;
  TimingConfig timing;
  ArmCoreModel arm(queue, timing);
  const SimTime t0 = queue.now();
  arm.ndp_command();
  EXPECT_EQ(queue.now() - t0, timing.firmware(timing.ndp_command_firmware));
  EXPECT_EQ(arm.busy_time(), queue.now() - t0);
}

TEST(ArmCore, IndexProbeIsLogarithmic) {
  EventQueue queue;
  TimingConfig timing;
  ArmCoreModel arm(queue, timing);
  const SimTime small = arm.index_probe(2);
  const SimTime large = arm.index_probe(1 << 20);
  EXPECT_GT(large, small);
  EXPECT_LT(large, small * 20);
}

TEST(Nvme, TransferChargesLatencyPlusBandwidth) {
  EventQueue queue;
  TimingConfig timing;
  NvmeLink nvme(queue, timing);
  const SimTime cost = nvme.transfer_to_host(1'400'000);
  // ~1 ms at 1400 MB/s plus command latency.
  EXPECT_NEAR(static_cast<double>(cost), 1e6 + 18e3, 1e4);
  EXPECT_EQ(nvme.bytes_to_host(), 1'400'000u);
  EXPECT_EQ(nvme.commands(), 1u);
}

hw::PEDesign point_design(const char* name = "Pt") {
  const auto module = spec::parse_spec(
      std::string("typedef struct { uint32_t x, y, z; } P3;"
                  "typedef struct { uint32_t x, y; } P2;"
                  "/* @autogen define parser ") +
      name +
      " with input = P3, output = P2, "
      "mapping = { output.x = input.y, output.y = input.z } */");
  return hw::build_pe_design(analysis::analyze_parser(module, name));
}

TEST(Cosmos, AttachPeRecordsDesigns) {
  CosmosPlatform cosmos;
  const obs::MetricsRegistry& metrics = cosmos.observability().metrics;
  const std::size_t metrics_before = metrics.size();
  const std::string dump_before = metrics.dump_json();
  EXPECT_EQ(cosmos.pe_count(), 0u);
  EXPECT_EQ(cosmos.attach_pe(point_design("First")), 0u);
  const hw::PEDesign& first = cosmos.pe_design(0);
  // Later attaches must not move earlier designs.
  for (std::size_t i = 1; i < 40; ++i) {
    EXPECT_EQ(cosmos.attach_pe(point_design("Next")), i);
  }
  EXPECT_EQ(cosmos.pe_count(), 40u);
  EXPECT_EQ(&first, &cosmos.pe_design(0));
  EXPECT_EQ(first.name, "First");
  EXPECT_EQ(cosmos.pe_design(39).name, "Next");
  EXPECT_THROW((void)cosmos.pe_design(40), std::out_of_range);

  hw::PEDesign broken = point_design();
  broken.connections.push_back({"nowhere", "tuple_in"});
  try {
    cosmos.attach_pe(broken);
    FAIL() << "an invalid design must be rejected";
  } catch (const ndpgen::Error& error) {
    EXPECT_EQ(error.kind(), ndpgen::ErrorKind::kGeneration);
  }
  EXPECT_EQ(cosmos.pe_count(), 40u);

  // Attaching is bookkeeping only: no metric, no virtual time.
  EXPECT_EQ(metrics.size(), metrics_before);
  EXPECT_EQ(metrics.dump_json(), dump_before);
  EXPECT_EQ(cosmos.events().now(), 0u);
  EXPECT_EQ(cosmos.events().dispatched(), 0u);
}

}  // namespace
}  // namespace ndpgen::platform
