// Custom compare operators (paper §IV-B: "the set of operators can be
// easily extended in our toolflow ... the framework supports interfacing
// to Verilog and VHDL, which in turn allows addition of custom
// compare-operations").
//
// Registers a `mask` operator ((element & value) == value — a bitset
// containment test no standard comparator provides), generates a PE whose
// Compare Unit includes it, and runs it on the cycle-level simulator.
#include <cstdio>
#include <vector>

#include "core/framework.hpp"
#include "hwsim/pe_sim.hpp"
#include "support/bytes.hpp"

namespace {

constexpr const char* kSpec = R"spec(
/* @autogen define parser EventFilter with
   chunksize = 32, input = Event, output = Event */
typedef struct {
  uint64_t timestamp;
  uint32_t flags;
  uint32_t source;
} Event;
)spec";

}  // namespace

int main() {
  using namespace ndpgen;

  // Extend the standard operator set with a custom operation. In the real
  // toolflow this would reference a user-supplied Verilog function; here
  // the semantics are given as a C++ lambda that both the simulator and
  // the software path execute.
  const hwgen::OperatorSet operators =
      hwgen::OperatorSet::standard().with_custom(
          "mask", [](hwgen::CompareOperand lhs, hwgen::CompareOperand rhs) {
            return (lhs.raw & rhs.raw) == rhs.raw;
          });

  core::FrameworkOptions options;
  options.hw.operators = operators;
  options.hw.use_spec_operators = false;  // Use the extended set.
  core::Framework framework(options);
  const auto compiled = framework.compile(kSpec);
  const auto& artifacts = compiled.get("EventFilter");

  std::printf("== custom compare operator ==\n");
  std::printf("operator set:");
  for (const auto& op : artifacts.design.operators.ops()) {
    std::printf(" %s(%u)%s", op.name.c_str(), op.encoding,
                op.kind == hwgen::CompareKind::kCustom ? "*" : "");
  }
  std::printf("   (* = custom)\n");

  // The generated Verilog references the external operator function.
  const bool hook_present =
      artifacts.verilog.find("EventFilter_op_mask") != std::string::npos;
  std::printf("Verilog hook for the custom operator present: %s\n",
              hook_present ? "yes" : "NO");

  // Run it: keep events whose flags contain 0b0110.
  hwsim::PETestBench bench(artifacts.design);
  std::vector<std::uint8_t> events;
  const std::uint32_t patterns[] = {0b0110, 0b1110, 0b0100,
                                    0b0010, 0b1111, 0b0000};
  for (std::uint32_t i = 0; i < 6; ++i) {
    support::put_u64(events, 1000 + i);
    support::put_u32(events, patterns[i]);
    support::put_u32(events, i);
  }
  bench.memory().write_bytes(0, events);

  const auto* mask_op = artifacts.design.operators.find("mask");
  bench.set_filter(0, 1 /* flags */, mask_op->encoding, 0b0110);
  const auto stats = bench.run_chunk(
      0, 4096, static_cast<std::uint32_t>(events.size()));
  std::printf("events with flags containing 0b0110: %llu of %llu\n",
              static_cast<unsigned long long>(stats.tuples_out),
              static_cast<unsigned long long>(stats.tuples_in));
  // 0b0110 and 0b1110 and 0b1111 contain the mask -> 3 survivors.
  return stats.tuples_out == 3 && hook_present ? 0 : 1;
}
