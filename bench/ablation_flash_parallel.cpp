// Ablation (§III-B): "By distributing data on independent Flash channels
// and LUNs, nKV facilitates parallel access and processing of data."
//
// Sweeps the flash topology (controllers x LUNs) and measures the virtual
// time to stream the same dataset off flash: LUN parallelism hides the
// page-read latency (tR) under the bus transfers, and the second Tiger4
// controller doubles the aggregate bandwidth to the paper's ~200 MB/s.
#include <cstdio>

#include "kv/db.hpp"
#include "platform/cosmos.hpp"
#include "workload/pubgraph.hpp"

using namespace ndpgen;

namespace {

double streaming_mbps(std::uint32_t controllers, std::uint32_t luns) {
  platform::CosmosConfig config;
  config.flash.controllers = controllers;
  config.flash.channels_per_controller = 1;
  config.flash.luns_per_channel = luns;
  platform::CosmosPlatform cosmos(config);

  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 256});
  auto db_config = workload::db_config(workload::Dataset::kPapers);
  db_config.level_groups = 1;  // Use every LUN for the one level.
  kv::NKV db(cosmos, db_config);
  workload::load_papers(db, generator);

  std::vector<std::uint64_t> pages;
  for (const auto& table : db.version().recency_ordered()) {
    for (const auto& block : table->blocks) {
      pages.insert(pages.end(), block.flash_pages.begin(),
                   block.flash_pages.end());
    }
  }
  const platform::SimTime t0 = cosmos.events().now();
  for (const auto page : pages) {
    cosmos.flash().read_page(cosmos.flash().delinearize(page), [] {});
  }
  cosmos.events().run();
  const double seconds =
      static_cast<double>(cosmos.events().now() - t0) / 1e9;
  return static_cast<double>(pages.size()) * 16 * 1024 / seconds / 1e6;
}

}  // namespace

int main() {
  std::printf("==============================================================\n");
  std::printf("Ablation — flash controller/LUN parallelism\n");
  std::printf("==============================================================\n\n");

  std::printf("%12s %10s %14s\n", "controllers", "luns/ch", "stream MB/s");
  double previous = 0;
  bool monotone = true;
  double two_ctrl_four_luns = 0;
  for (const auto [controllers, luns] :
       {std::pair{1u, 1u}, {1u, 2u}, {1u, 4u}, {2u, 1u}, {2u, 4u}}) {
    const double mbps = streaming_mbps(controllers, luns);
    std::printf("%12u %10u %14.1f\n", controllers, luns, mbps);
    monotone &= mbps >= previous * 0.95;
    previous = mbps;
    if (controllers == 2 && luns == 4) two_ctrl_four_luns = mbps;
  }

  std::printf("\n  [%c] parallelism scales streaming bandwidth\n",
              monotone ? 'x' : ' ');
  std::printf("  [%c] two Tiger4 controllers with LUN interleaving reach "
              "the paper's ~200 MB/s (%.1f)\n",
              two_ctrl_four_luns > 180 && two_ctrl_four_luns < 220 ? 'x'
                                                                   : ' ',
              two_ctrl_four_luns);
  return monotone ? 0 : 1;
}
