// Fig. 7(b): SCAN runtimes — software NDP vs hardware NDP, generated PEs
// (this work) vs hand-crafted PEs [1].
//
// The paper scans the full publication graph (papers + references) with a
// value predicate. We run a scaled dataset and report full-scale virtual
// time (linear scaling: the hardware scan is flash-bandwidth-bound at
// ~200 MB/s aggregate). Paper-reported anchors: hand-crafted HW 5.512 s,
// generated HW 5.530 s (+0.018 s); software NDP is substantially slower.
#include "bench_common.hpp"

#include <chrono>

#include "core/testbed.hpp"
#include "hwgen/template_builder.hpp"
#include "hwsim/pe_sim.hpp"
#include "kv/block_format.hpp"
#include "ndp/predicate.hpp"

using namespace ndpgen;

namespace {

struct ScanOutcome {
  double papers_s = 0;
  double refs_s = 0;
  [[nodiscard]] double total() const { return papers_s + refs_s; }
};

enum class Variant { kSoftware, kHwBaseline, kHwGenerated };

const char* name_of(Variant variant) {
  switch (variant) {
    case Variant::kSoftware: return "SW (software NDP)";
    case Variant::kHwBaseline: return "HW hand-crafted [1]";
    case Variant::kHwGenerated: return "HW generated (ours)";
  }
  return "?";
}

double run_scan(kv::NKV& db, const core::CompileResult& compiled,
                workload::Dataset dataset, Variant variant,
                platform::CosmosPlatform& cosmos,
                const std::vector<ndp::FilterPredicate>& predicates,
                std::uint64_t scale, bench::FaultCounters& faults) {
  const core::ParserArtifacts& artifacts =
      compiled.get(workload::describe(dataset).parser);
  ndp::ExecutorConfig config;
  config.result_key_extractor = workload::describe(dataset).result_key;
  if (variant == Variant::kSoftware) {
    config.mode = ndp::ExecMode::kSoftware;
  } else {
    config.mode = ndp::ExecMode::kHardware;
    hwgen::TemplateOptions options;
    if (variant == Variant::kHwBaseline) {
      options.flavor = hwgen::DesignFlavor::kHandcraftedBaseline;
      options.static_payload_bytes =
          kv::records_per_block(artifacts.analyzed.input.storage_bytes()) *
          artifacts.analyzed.input.storage_bytes();
    }
    const auto design = hwgen::build_pe_design(artifacts.analyzed, options);
    cosmos.attach_pe(design);
    config.pe_indices = {cosmos.pe_count() - 1};
  }
  ndp::HybridExecutor executor(db, artifacts.analyzed,
                               artifacts.design.operators, config);
  const auto stats = executor.scan(predicates);
  faults.accumulate(stats);
  return bench::to_seconds(stats.elapsed) * static_cast<double>(scale);
}

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(256);
  bench::print_header(
      "Fig. 7(b) — SCAN execution times (full-scale seconds, virtual time)",
      "Weber et al., IPPS'21, Fig. 7(b)");
  std::printf("dataset: publication graph at 1/%llu scale "
              "(set NDPGEN_SCALE to change)\n\n",
              static_cast<unsigned long long>(scale));

  const core::Framework framework;
  const auto compiled = framework.compile(workload::pubgraph_spec_source());
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = scale});
  const fault::FaultProfile fault_profile = bench::fault_profile_from_env();
  if (fault_profile.any_enabled()) {
    std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
  }

  std::printf("%-22s %12s %12s %12s\n", "variant", "papers [s]", "refs [s]",
              "total [s]");
  bench::JsonResult json("fig7_scan");
  ScanOutcome outcomes[3];
  const Variant variants[] = {Variant::kSoftware, Variant::kHwBaseline,
                              Variant::kHwGenerated};
  for (int v = 0; v < 3; ++v) {
    // Fresh platform per variant so flash/DES state never leaks across.
    // The two stores share the device, so they must share the placement
    // policy (one physical page allocator per flash device).
    platform::CosmosConfig cosmos_config;
    cosmos_config.fault = fault_profile;
    platform::CosmosPlatform cosmos(cosmos_config);
    // Evaluation placement: stripe over every channel (group count 1) so
    // the scan sees the full ~200 MB/s aggregate (§III-B parallelism).
    auto placement = std::make_shared<kv::PlacementPolicy>(
        cosmos.flash().topology(), 1);
    const auto load = [&](workload::Dataset dataset) {
      auto config = workload::db_config(dataset);
      config.shared_placement = placement;
      auto store = std::make_unique<kv::NKV>(cosmos, config);
      workload::describe(dataset).load(*store, generator);
      return store;
    };
    const auto papers = load(workload::Dataset::kPapers);
    const auto refs = load(workload::Dataset::kRefs);

    bench::FaultCounters faults;
    outcomes[v].papers_s =
        run_scan(*papers, compiled, workload::Dataset::kPapers, variants[v],
                 cosmos, {{"year", "lt", 1990}}, scale, faults);
    outcomes[v].refs_s = run_scan(
        *refs, compiled, workload::Dataset::kRefs, variants[v], cosmos,
        {{"dst", "ge", generator.paper_count() / 4},
         {"dst", "lt", generator.paper_count() / 2}},
        scale, faults);
    std::printf("%-22s %12.3f %12.3f %12.3f\n", name_of(variants[v]),
                outcomes[v].papers_s, outcomes[v].refs_s,
                outcomes[v].total());
    json.add(name_of(variants[v]), "papers", outcomes[v].papers_s, "s");
    json.add(name_of(variants[v]), "refs", outcomes[v].refs_s, "s");
    json.add(name_of(variants[v]), "total", outcomes[v].total(), "s");
    if (fault_profile.any_enabled()) {
      std::printf("%-22s degraded media: %llu retried, %llu uncorrectable, "
                  "%llu degraded to SW\n", "",
                  static_cast<unsigned long long>(faults.blocks_retried),
                  static_cast<unsigned long long>(
                      faults.uncorrectable_blocks),
                  static_cast<unsigned long long>(
                      faults.blocks_degraded_to_software));
      bench::add_fault_rows(json, name_of(variants[v]), faults);
    }
  }

  // Fig. 10 dimension: replicate the generated PE over disjoint flash
  // channel shards (--pes). Flash scheduling stays shared (honest bus
  // serialization); the PE phase combines max-over-shards, so the sweep
  // shows channel-parallel scaling, not a free N-fold speedup.
  std::printf("\nmulti-PE sweep (HW generated, papers scan):\n");
  std::printf("%6s %12s %20s %10s\n", "PEs", "papers [s]", "PE phase [cyc]",
              "speedup");
  std::uint64_t serial_pe_cycles = 0;
  for (const std::uint32_t pes : {1u, 2u, 4u, 8u}) {
    core::TestbedConfig config;
    config.scale_divisor = scale;
    config.cosmos.fault = fault_profile;
    config.executor.mode = ndp::ExecMode::kHardware;
    config.executor.num_pes = pes;
    core::Testbed testbed(std::move(config));
    const auto stats = testbed.executor().scan({{"year", "lt", 1990}});
    if (pes == 1) serial_pe_cycles = stats.pe_phase_cycles;
    const double seconds =
        bench::to_seconds(stats.elapsed) * static_cast<double>(scale);
    const double speedup =
        stats.pe_phase_cycles == 0
            ? 0.0
            : static_cast<double>(serial_pe_cycles) /
                  static_cast<double>(stats.pe_phase_cycles);
    std::printf("%6u %12.3f %20llu %9.2fx\n", pes, seconds,
                static_cast<unsigned long long>(stats.pe_phase_cycles),
                speedup);
    const std::string series =
        "HW generated, " + std::to_string(pes) + " PEs";
    json.add(series, "papers", seconds, "s");
    json.add(series, "pe_phase_cycles",
             static_cast<double>(stats.pe_phase_cycles), "cycles");
    json.add(series, "pe_phase_speedup", speedup, "x");
    // Cycle attribution (ns rows: the lower-better rule of the bench guard
    // holds them against bench/baseline.json).
    for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
      const auto phase = static_cast<obs::RequestPhase>(p);
      json.add(series, "phase_" + std::string(obs::phase_name(phase)),
               static_cast<double>(stats.phases[phase]), "ns");
    }
    testbed.platform().publish_metrics();
    const auto& metrics = testbed.platform().observability().metrics;
    if (metrics.contains("hwsim.idle_cycle_fraction")) {
      json.add(series, "idle_cycle_fraction",
               static_cast<double>(
                   metrics.gauge_value("hwsim.idle_cycle_fraction")),
               "permille");
    }
  }
  // Simulator throughput: wall-clock PE-kernel cycles simulated per second
  // in exact vs fast mode, same generated PaperScan PE, same chunk
  // sequence: one block of generated papers (the same block at every
  // NDPGEN_SCALE) under the scan's own predicate, so the chunks mix passing
  // and dropped tuples. The virtual outcome is mode-independent (checked
  // below); only the wall clock moves. The rows never enter
  // bench/baseline.json: the sim-throughput rule of check_bench_regression
  // holds the fast/exact ratio within one run instead.
  std::printf("\nsim throughput (HW generated, papers chunks, wall clock):\n");
  {
    const auto& artifacts = compiled.get("PaperScan");
    const auto design = hwgen::build_pe_design(artifacts.analyzed, {});
    const std::uint32_t record_bytes =
        static_cast<std::uint32_t>(artifacts.analyzed.input.storage_bytes());
    const std::uint32_t records = 32'000 / record_bytes;
    const workload::PubGraphGenerator full_scale(
        workload::PubGraphConfig{.scale_divisor = 1});
    std::vector<std::uint8_t> payload;
    for (std::uint64_t i = 0; i < records; ++i) {
      const auto record = full_scale.paper(i).serialize();
      payload.insert(payload.end(), record.begin(), record.end());
    }
    const auto payload_bytes = static_cast<std::uint32_t>(payload.size());
    const auto filters = ndp::bind_conjunction(
        artifacts.analyzed.input, artifacts.design.operators,
        {{"year", "lt", 1990}}, design.filter_stage_count());
    constexpr int kChunks = 64;
    double cycles_per_s[2] = {0, 0};
    std::uint64_t virtual_cycles[2] = {0, 0};
    std::uint64_t matched[2] = {0, 0};
    const hwsim::SimMode modes[2] = {hwsim::SimMode::kExact,
                                     hwsim::SimMode::kFast};
    for (int m = 0; m < 2; ++m) {
      hwsim::PETestBench pe_bench(
          design, hwsim::PEBenchConfig{.sim_mode = modes[m]});
      pe_bench.memory().write_bytes(0, payload);
      for (std::uint32_t s = 0; s < filters.size(); ++s) {
        pe_bench.set_filter(s, filters[s].field_select, filters[s].op_encoding,
                            filters[s].compare_value);
      }
      // One untimed warm-up chunk per mode (first-touch page faults and
      // lazy allocations would otherwise dominate the fast path, whose
      // whole timed window is a few milliseconds), then best-of-kReps
      // timing: the minimum wall time rejects scheduler noise on shared
      // runners. Virtual cycles per repetition are mode-independent and
      // constant, so cyc/s uses the per-rep virtual delta.
      (void)pe_bench.run_chunk(0, 1 << 20, payload_bytes);
      constexpr int kReps = 3;
      double best_wall = 0.0;
      std::uint64_t rep_cycles = 0;
      for (int rep = 0; rep < kReps; ++rep) {
        const std::uint64_t rep_start_cycles = pe_bench.kernel().now();
        const auto wall_start = std::chrono::steady_clock::now();
        for (int c = 0; c < kChunks; ++c) {
          matched[m] +=
              pe_bench.run_chunk(0, 1 << 20, payload_bytes).tuples_out;
        }
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - wall_start;
        rep_cycles = pe_bench.kernel().now() - rep_start_cycles;
        if (rep == 0 || wall.count() < best_wall) best_wall = wall.count();
      }
      virtual_cycles[m] = rep_cycles;
      cycles_per_s[m] = static_cast<double>(rep_cycles) / best_wall;
    }
    const double speedup = cycles_per_s[0] > 0
                               ? cycles_per_s[1] / cycles_per_s[0]
                               : 0.0;
    std::printf("%8s %16s %16s\n", "mode", "cycles", "cyc/s");
    std::printf("%8s %16llu %16.0f\n", "exact",
                static_cast<unsigned long long>(virtual_cycles[0]),
                cycles_per_s[0]);
    std::printf("%8s %16llu %16.0f\n", "fast",
                static_cast<unsigned long long>(virtual_cycles[1]),
                cycles_per_s[1]);
    std::printf("  fused replay speedup: %.1fx\n", speedup);
    std::printf("  [%c] virtual results identical across modes "
                "(%llu cycles, %llu matches)\n",
                (virtual_cycles[0] == virtual_cycles[1] &&
                 matched[0] == matched[1])
                    ? 'x'
                    : ' ',
                static_cast<unsigned long long>(virtual_cycles[1]),
                static_cast<unsigned long long>(matched[1]));
    json.add("sim_throughput", "exact", cycles_per_s[0], "cyc/s");
    json.add("sim_throughput", "fast", cycles_per_s[1], "cyc/s");
    json.add("sim_throughput", "speedup", speedup, "ratio");
  }
  // Load throughput: wall-clock records/s of workload::load_refs (the
  // generator, its dedup, the SST build, flash page content and Bloom
  // filters) against the generator alone over the same 1/64-scale refs
  // (the same population at every NDPGEN_SCALE). Best of three each. Like
  // sim_throughput, the rows never enter bench/baseline.json: its
  // load-throughput rule holds the load/generator ratio within one run.
  std::printf("\nload throughput (refs at 1/64, wall clock):\n");
  {
    const workload::PubGraphGenerator generator(
        workload::PubGraphConfig{.scale_divisor = 64});
    constexpr int kReps = 3;
    double best[2] = {0, 0};  // generator, load_refs
    std::uint64_t records[2] = {0, 0};
    std::uint64_t checksum = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      auto start = std::chrono::steady_clock::now();
      for (std::uint64_t i = 0; i < generator.ref_count(); ++i) {
        const workload::RefRecord ref = generator.ref(i);
        checksum += ref.src ^ ref.dst;
      }
      const std::chrono::duration<double> gen_wall =
          std::chrono::steady_clock::now() - start;
      records[0] = generator.ref_count();

      platform::CosmosPlatform cosmos;
      kv::NKV db(cosmos, workload::db_config(workload::Dataset::kRefs));
      start = std::chrono::steady_clock::now();
      records[1] = workload::load_refs(db, generator);
      const std::chrono::duration<double> load_wall =
          std::chrono::steady_clock::now() - start;
      if (rep == 0 || gen_wall.count() < best[0]) best[0] = gen_wall.count();
      if (rep == 0 || load_wall.count() < best[1]) best[1] = load_wall.count();
    }
    const double gen_rate = static_cast<double>(records[0]) / best[0];
    const double load_rate = static_cast<double>(records[1]) / best[1];
    std::printf("%10s %12s %14s\n", "layer", "records", "records/s");
    std::printf("%10s %12llu %14.0f\n", "generator",
                static_cast<unsigned long long>(records[0]), gen_rate);
    std::printf("%10s %12llu %14.0f\n", "load_refs",
                static_cast<unsigned long long>(records[1]), load_rate);
    std::printf("  load / generator: %.3f (checksum %llu)\n",
                load_rate / gen_rate,
                static_cast<unsigned long long>(checksum % 1000));
    json.add("load_throughput", "generator", gen_rate, "rec/s");
    json.add("load_throughput", "refs", load_rate, "rec/s");
    json.add("load_throughput", "ratio", load_rate / gen_rate, "ratio");
  }
  json.write();

  std::printf("\npaper-reported anchors (their testbed, absolute):\n");
  std::printf("  HW hand-crafted [1]: 5.512 s   HW generated: 5.530 s "
              "(+0.018 s)\n");
  std::printf("shape checks:\n");
  const double hw_gap =
      outcomes[2].total() - outcomes[1].total();
  std::printf("  [%c] HW scan faster than SW scan (%.3f s vs %.3f s)\n",
              outcomes[2].total() < outcomes[0].total() ? 'x' : ' ',
              outcomes[2].total(), outcomes[0].total());
  std::printf("  [%c] generated ~= hand-crafted (gap %.3f s, %.1f%%; ours "
              "is marginally faster — the configurable Store Unit skips "
              "the static write-back padding)\n",
              std::abs(hw_gap) < 0.03 * outcomes[1].total() ? 'x' : ' ',
              hw_gap, 100.0 * hw_gap / outcomes[1].total());
  return 0;
}
