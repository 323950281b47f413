// Analytics on the smart SSD: range scans and on-device aggregation.
//
// Shows the query-level API the framework enables on top of nKV:
//   * RANGE_SCAN with a value predicate (2-stage filtering + index
//     pruning),
//   * COUNT/SUM/MIN/MAX pushed all the way into the generated hardware
//     (only two registers cross the NVMe link).
#include <cstdio>

#include "core/testbed.hpp"

int main() {
  using namespace ndpgen;

  // Papers at 1/2048 scale on a PaperScan PE with the aggregate unit.
  core::TestbedConfig config;
  config.scale_divisor = 2048;
  config.framework.hw.enable_aggregation = true;
  config.executor.mode = ndp::ExecMode::kHardware;
  core::Testbed testbed(std::move(config));
  kv::NKV& db = testbed.store();
  ndp::HybridExecutor& executor = testbed.executor();
  std::printf("== smart-SSD analytics over %llu papers ==\n\n",
              static_cast<unsigned long long>(testbed.records_loaded()));

  // Query 1: SELECT * WHERE 1000 <= id <= 1200 AND year < 1990.
  std::vector<std::vector<std::uint8_t>> results;
  const auto range = executor.range_scan(kv::Key{1000, 0}, kv::Key{1200, 0},
                                         {{"year", "lt", 1990}}, &results);
  std::printf("RANGE_SCAN(id in [1000,1200], year<1990): %llu rows, "
              "%llu of %zu blocks touched, %.3f ms\n",
              static_cast<unsigned long long>(range.results),
              static_cast<unsigned long long>(range.blocks),
              db.version().total_data_bytes() / kv::kDataBlockBytes,
              static_cast<double>(range.elapsed) / 1e6);

  // Query 2: SELECT COUNT(*) WHERE year < 1990 — folded on-device.
  const auto count =
      executor.aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount,
                         "year");
  std::printf("COUNT(year<1990): %llu  (%.3f ms, %llu bytes over NVMe)\n",
              static_cast<unsigned long long>(count.raw_result),
              static_cast<double>(count.elapsed) / 1e6,
              static_cast<unsigned long long>(count.result_bytes));

  // Query 3: SELECT MAX(n_cited).
  const auto max_cited =
      executor.aggregate({}, hwgen::AggOp::kMax, "n_cited");
  std::printf("MAX(n_cited): %llu\n",
              static_cast<unsigned long long>(max_cited.raw_result));

  // Query 4: SELECT SUM(n_refs) for one venue.
  const std::uint32_t venue = testbed.generator().paper(0).venue_id;
  const auto sum = executor.aggregate({{"venue_id", "eq", venue}},
                                      hwgen::AggOp::kSum, "n_refs");
  std::printf("SUM(n_refs) for venue %u: %llu over %llu papers\n", venue,
              static_cast<unsigned long long>(sum.raw_result),
              static_cast<unsigned long long>(sum.folded));

  // Cross-check query 2 against the software path.
  const auto sw_count =
      testbed.make_executor(ndp::ExecMode::kSoftware)
          ->aggregate({{"year", "lt", 1990}}, hwgen::AggOp::kCount, "year");
  std::printf("\nhardware and software agree on COUNT: %s\n",
              count.raw_result == sw_count.raw_result ? "yes" : "NO");
  return count.raw_result == sw_count.raw_result ? 0 : 1;
}
