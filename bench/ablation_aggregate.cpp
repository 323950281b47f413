// Ablation (paper §VII outlook): on-device aggregation.
//
// "more computational and analytical tasks could also be performed using
// this architecture" — we generate a PaperScan PE with the aggregation
// extension and compare COUNT/SUM/MIN/MAX over a filtered scan:
//   * hardware NDP with the aggregate unit (result = 2 registers),
//   * hardware NDP filter + host-side aggregation of the result set,
//   * software NDP aggregation on the device ARM.
// The host fold reads n_cited through a record plan over the PE's output
// layout and folds it with the same hwgen::AggregateFold as the device;
// its time is the filtered scan plus the host parse of the result set.
#include "bench_common.hpp"

#include "core/testbed.hpp"

using namespace ndpgen;

int main() {
  const std::uint64_t scale = bench::scale_divisor(512);
  bench::print_header(
      "Ablation — on-device aggregation (framework extension)",
      "Weber et al., IPPS'21, SVII outlook");
  std::printf("dataset: papers at 1/%llu scale; "
              "query: AGG(n_cited) WHERE year < 1990\n\n",
              static_cast<unsigned long long>(scale));

  core::TestbedConfig config;
  config.scale_divisor = scale;
  config.framework.hw.enable_aggregation = true;
  config.executor.mode = ndp::ExecMode::kHardware;
  core::Testbed testbed(std::move(config));

  const std::vector<ndp::FilterPredicate> predicate = {{"year", "lt", 1990}};
  ndp::HybridExecutor& hw = testbed.executor();
  const auto sw = testbed.make_executor(ndp::ExecMode::kSoftware);
  const auto n_cited = analysis::RecordPlan::select(
      testbed.artifacts().analyzed.output, {"n_cited"});

  // The filtered result set for the host strategy crosses the NVMe link
  // once; every op folds it.
  std::vector<std::vector<std::uint8_t>> results;
  const auto hw_scan = hw.scan(predicate, &results);
  // The host then parses the result set, at the rate the executor charges
  // host-side parsing.
  const platform::SimTime host_elapsed =
      hw_scan.elapsed +
      testbed.platform().timing().host_parse_time(hw_scan.result_bytes);

  struct Strategy {
    const char* name;
    platform::SimTime elapsed;
    std::uint64_t nvme_bytes;
    std::uint64_t result;
  };
  bench::JsonResult json("ablation_aggregate");
  bool agree = true;
  bool fewer_bytes = true;
  bool not_slower = true;
  std::printf("%-6s %-28s %12s %14s %22s\n", "op", "strategy", "time [ms]",
              "NVMe bytes", "AGG(n_cited)");
  for (const hwgen::AggOp op : {hwgen::AggOp::kCount, hwgen::AggOp::kSum,
                                hwgen::AggOp::kMin, hwgen::AggOp::kMax}) {
    const auto hw_agg = hw.aggregate(predicate, op, "n_cited");
    const auto sw_agg = sw->aggregate(predicate, op, "n_cited");
    const hwgen::AggregateFold fold(op, n_cited.fields().front());
    std::uint64_t host = fold.seed();
    for (const auto& record : results) {
      host = fold.combine(host, fold.widen(n_cited.extract(record, 0)));
    }
    const Strategy strategies[] = {
        {"HW filter + HW aggregate", hw_agg.elapsed, hw_agg.result_bytes,
         hw_agg.raw_result},
        {"HW filter + host aggregate", host_elapsed, hw_scan.result_bytes,
         host},
        {"SW filter + SW aggregate", sw_agg.elapsed, sw_agg.result_bytes,
         sw_agg.raw_result},
    };
    const std::string name(hwgen::to_string(op));
    for (const Strategy& s : strategies) {
      std::printf("%-6s %-28s %12.3f %14llu %22llu\n", name.c_str(), s.name,
                  bench::to_millis(s.elapsed),
                  static_cast<unsigned long long>(s.nvme_bytes),
                  static_cast<unsigned long long>(s.result));
      json.add(s.name, name + "_ms", bench::to_millis(s.elapsed), "ms");
      json.add(s.name, name + "_nvme_bytes",
               static_cast<double>(s.nvme_bytes));
      json.add(s.name, name + "_result", static_cast<double>(s.result));
      agree = agree && s.result == strategies[0].result;
    }
    fewer_bytes = fewer_bytes && hw_agg.result_bytes < hw_scan.result_bytes;
    not_slower = not_slower && hw_agg.elapsed <= host_elapsed;
  }
  json.write();

  std::printf("\n  [%c] all three strategies agree on every result\n",
              agree ? 'x' : ' ');
  std::printf("  [%c] on-device aggregation moves only the result "
              "registers across NVMe\n",
              fewer_bytes ? 'x' : ' ');
  std::printf("  [%c] and is not slower than collecting the result set\n",
              not_slower ? 'x' : ' ');
  return agree ? 0 : 1;
}
