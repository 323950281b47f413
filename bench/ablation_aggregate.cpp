// Ablation (paper §VII outlook): on-device aggregation.
//
// "more computational and analytical tasks could also be performed using
// this architecture" — we generate a PaperScan PE with the aggregation
// extension and compare COUNT/SUM/MIN/MAX over a filtered scan:
//   * hardware NDP with the aggregate unit (result = 2 registers),
//   * hardware NDP filter + host-side aggregation of the result set,
//   * software NDP aggregation on the device ARM.
#include "bench_common.hpp"

#include "core/testbed.hpp"
#include "support/bytes.hpp"

using namespace ndpgen;

int main() {
  const std::uint64_t scale = bench::scale_divisor(512);
  bench::print_header(
      "Ablation — on-device aggregation (framework extension)",
      "Weber et al., IPPS'21, SVII outlook");
  std::printf("dataset: papers at 1/%llu scale; "
              "query: SUM(n_cited) WHERE year < 1990\n\n",
              static_cast<unsigned long long>(scale));

  core::TestbedConfig config;
  config.scale_divisor = scale;
  config.framework.hw.enable_aggregation = true;
  config.executor.mode = ndp::ExecMode::kHardware;
  core::Testbed testbed(std::move(config));

  const std::vector<ndp::FilterPredicate> predicate = {{"year", "lt", 1990}};

  // 1. Hardware NDP with the aggregate unit.
  ndp::HybridExecutor& hw = testbed.executor();
  const auto hw_agg = hw.aggregate(predicate, hwgen::AggOp::kSum, "n_cited");

  // 2. Hardware NDP filter, aggregation at the host (result set crosses
  //    the NVMe link first).
  std::vector<std::vector<std::uint8_t>> results;
  const auto hw_scan = hw.scan(predicate, &results);
  std::uint64_t host_sum = 0;
  for (const auto& record : results) {
    host_sum += support::get_u32(record, 20);  // n_cited in PaperResult.
  }

  // 3. Software NDP aggregation on the ARM core.
  const auto sw = testbed.make_executor(ndp::ExecMode::kSoftware);
  const auto sw_agg = sw->aggregate(predicate, hwgen::AggOp::kSum, "n_cited");

  std::printf("%-36s %12s %14s %14s\n", "strategy", "time [ms]",
              "NVMe bytes", "SUM(n_cited)");
  std::printf("%-36s %12.3f %14llu %14llu\n", "HW filter + HW aggregate",
              bench::to_millis(hw_agg.elapsed),
              static_cast<unsigned long long>(hw_agg.result_bytes),
              static_cast<unsigned long long>(hw_agg.raw_result));
  std::printf("%-36s %12.3f %14llu %14llu\n", "HW filter + host aggregate",
              bench::to_millis(hw_scan.elapsed),
              static_cast<unsigned long long>(hw_scan.result_bytes),
              static_cast<unsigned long long>(host_sum));
  std::printf("%-36s %12.3f %14llu %14llu\n", "SW filter + SW aggregate",
              bench::to_millis(sw_agg.elapsed),
              static_cast<unsigned long long>(sw_agg.result_bytes),
              static_cast<unsigned long long>(sw_agg.raw_result));

  const bool agree =
      hw_agg.raw_result == host_sum && hw_agg.raw_result == sw_agg.raw_result;
  std::printf("\n  [%c] all three strategies agree on the result\n",
              agree ? 'x' : ' ');
  std::printf("  [%c] on-device aggregation moves only the result "
              "registers across NVMe (%llu vs %llu bytes)\n",
              hw_agg.result_bytes < hw_scan.result_bytes ? 'x' : ' ',
              static_cast<unsigned long long>(hw_agg.result_bytes),
              static_cast<unsigned long long>(hw_scan.result_bytes));
  std::printf("  [%c] and is not slower than collecting the result set\n",
              hw_agg.elapsed <= hw_scan.elapsed ? 'x' : ' ');
  return agree ? 0 : 1;
}
