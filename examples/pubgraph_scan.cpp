// Publication-graph scan: the paper's motivating workload end to end.
//
// Builds a testbed: a scaled publication reference graph in the nKV store
// (records placed on physical flash pages) plus the Paper PE generated
// from the format specification. Runs the hardware-accelerated hybrid
// SCAN (year-range predicate) against the software baseline, printing
// both virtual runtimes.
#include <cstdio>

#include "core/testbed.hpp"

int main() {
  using namespace ndpgen;

  // A 1/1024-scale publication graph (papers only, for brevity).
  core::TestbedConfig config;
  config.scale_divisor = 1024;
  config.executor.mode = ndp::ExecMode::kHardware;
  core::Testbed testbed(std::move(config));
  kv::NKV& db = testbed.store();
  std::printf("loaded %llu papers into %zu SSTs (%llu data bytes)\n",
              static_cast<unsigned long long>(testbed.records_loaded()),
              db.version().total_ssts(),
              static_cast<unsigned long long>(
                  db.version().total_data_bytes()));

  // SCAN(year < 1990): hardware vs software.
  const std::vector<ndp::FilterPredicate> predicate = {
      {"year", "lt", 1990}};
  const auto hw_stats = testbed.executor().scan(predicate);
  const auto sw_stats =
      testbed.make_executor(ndp::ExecMode::kSoftware)
          ->scan(predicate);

  const double selectivity = testbed.generator().year_selectivity(1990);
  std::printf("expected selectivity %.3f; matched %llu of %llu tuples\n",
              selectivity,
              static_cast<unsigned long long>(hw_stats.results),
              static_cast<unsigned long long>(hw_stats.tuples_scanned));
  std::printf("SCAN(year<1990)  HW: %.3f ms   SW: %.3f ms  (virtual time, "
              "1/1024 scale)\n",
              static_cast<double>(hw_stats.elapsed) / 1e6,
              static_cast<double>(sw_stats.elapsed) / 1e6);
  std::printf("results agree: %s\n",
              hw_stats.results == sw_stats.results ? "yes" : "NO");
  return hw_stats.results == sw_stats.results ? 0 : 1;
}
