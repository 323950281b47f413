// Ablation (§III-B): "keeping the data of different LSM-tree index
// components separated on different Flash chips avoids blocking of the
// entire bus by compaction jobs taking place as part of the LSM-tree
// merge."
//
// Placement is a trade-off: striping a level over ALL channels maximizes
// its stand-alone scan bandwidth, while giving each level its own channel
// group makes it immune to other levels' compaction traffic. The honest
// metric is therefore the SLOWDOWN a compaction-sized background job
// inflicts on a foreground scan, under each placement policy.
#include "bench_common.hpp"

#include <algorithm>

using namespace ndpgen;

namespace {

struct Outcome {
  double alone_ms = 0;
  double contended_ms = 0;
  [[nodiscard]] double slowdown() const { return contended_ms / alone_ms; }
};

Outcome scan_outcome(std::uint32_t level_groups, std::uint64_t scale) {
  Outcome outcome;
  for (const bool background : {false, true}) {
    platform::CosmosPlatform cosmos;
    const workload::PubGraphGenerator generator(
        workload::PubGraphConfig{.scale_divisor = scale});

    const workload::DatasetInfo& papers =
        workload::describe(workload::Dataset::kPapers);
    auto db_config = workload::db_config(workload::Dataset::kPapers);
    db_config.level_groups = level_groups;
    auto placement = std::make_shared<kv::PlacementPolicy>(
        cosmos.flash().topology(), level_groups);
    db_config.shared_placement = placement;
    kv::NKV db(cosmos, db_config);
    workload::load_papers(db, generator, /*level=*/2);

    // Victim data on level 3 (own channel group when level_groups > 1).
    kv::NKV victim(cosmos, db_config);
    workload::load_papers(victim, generator, /*level=*/3);

    if (background) {
      // Compaction-sized background I/O: read + rewrite all of level 3.
      for (const auto& table : victim.version().level(3)) {
        for (const auto& handle : table->blocks) {
          for (const auto page : handle.flash_pages) {
            const auto addr = cosmos.flash().delinearize(page);
            cosmos.flash().read_page(addr, [] {});
            cosmos.flash().charge_program(addr, [] {});
          }
        }
      }
    }

    const core::Framework framework;
    const auto compiled =
        framework.compile(workload::pubgraph_spec_source());
    const auto& artifacts = compiled.get(papers.parser);
    cosmos.attach_pe(artifacts.design);
    ndp::ExecutorConfig config;
    config.mode = ndp::ExecMode::kHardware;
    config.pe_indices = {0};
    config.result_key_extractor = papers.result_key;
    ndp::HybridExecutor executor(db, artifacts.analyzed,
                                 artifacts.design.operators, config);
    const auto stats = executor.scan({{"year", "lt", 1990}});
    (background ? outcome.contended_ms : outcome.alone_ms) =
        bench::to_millis(stats.elapsed);
  }
  return outcome;
}

}  // namespace

int main() {
  // The shared policy stripes each 2-page block over all 32 LUNs, level 3
  // continuing where level 2 stopped. With at most eight blocks per level
  // the two levels hold disjoint LUNs, so no compaction can block the scan
  // (1/2048 scale has eight): cap the divisor at 1/1024 (15 blocks).
  const std::uint64_t scale =
      std::min<std::uint64_t>(bench::scale_divisor(512), 1024);
  bench::print_header(
      "Ablation — per-level flash placement vs compaction interference",
      "Weber et al., IPPS'21, SIII-B (nKV placement)");
  std::printf("dataset: papers at 1/%llu scale; compaction-sized "
              "background job on another LSM level\n\n",
              static_cast<unsigned long long>(scale));

  const Outcome shared = scan_outcome(/*level_groups=*/1, scale);
  const Outcome isolated = scan_outcome(/*level_groups=*/4, scale);

  std::printf("%-40s %12s %14s %10s\n", "placement", "alone [ms]",
              "w/ compaction", "slowdown");
  bench::JsonResult json("ablation_placement");
  for (const auto& [name, outcome] :
       {std::pair{"all levels share every channel", shared},
        std::pair{"levels on separate channel groups (nKV)", isolated}}) {
    std::printf("%-40s %12.2f %14.2f %9.2fx\n", name, outcome.alone_ms,
                outcome.contended_ms, outcome.slowdown());
    json.add(name, "alone_ms", outcome.alone_ms, "ms");
    json.add(name, "contended_ms", outcome.contended_ms, "ms");
    // Unitless, so the guard's "counts" rule holds it exactly: placement
    // and program order are deterministic.
    json.add(name, "slowdown", outcome.slowdown());
  }
  json.write();

  std::printf("\n  [%c] with shared channels, compaction blocks the scan "
              "(%.2fx slowdown)\n",
              shared.slowdown() > 1.3 ? 'x' : ' ', shared.slowdown());
  std::printf("  [%c] channel-group separation makes the scan immune to "
              "compaction (%.2fx)\n",
              isolated.slowdown() < 1.1 ? 'x' : ' ', isolated.slowdown());
  std::printf("  note: isolation trades stand-alone bandwidth (the level "
              "owns fewer channels) for interference immunity.\n");
  return (shared.slowdown() > isolated.slowdown()) ? 0 : 1;
}
