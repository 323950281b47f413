// ndpgen — command-line front end of the accelerator-generation toolflow.
//
// This is the developer-facing entry point the paper's §II motivates: a
// database engineer runs the tool on a C-style format specification and
// receives the hardware (Verilog), the HW/SW interface (header-only C
// library) and a resource report, with zero FPGA knowledge required. A
// `simulate` command additionally executes the generated PE on the
// cycle-level simulator for functional validation.
//
//   ndpgen compile <spec-file> [-o <outdir>]
//   ndpgen report  <spec-file>
//   ndpgen simulate <spec-file> <parser> [--tuples N] [--stage s:field,op,value]...
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/pubgraph_cluster.hpp"
#include "core/framework.hpp"
#include "core/testbed.hpp"
#include "fault/fault_profile.hpp"
#include "host/service.hpp"
#include "hwgen/testbench_emitter.hpp"
#include "hwsim/pe_sim.hpp"
#include "hwsim/tuple_buffer.hpp"
#include "ndp/executor.hpp"
#include "ndp/predicate.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/request_trace.hpp"
#include "query/compiler.hpp"
#include "query/executor.hpp"
#include "query/plan_parser.hpp"
#include "query/plan_suite.hpp"
#include "query/reference_executor.hpp"
#include "query/serve.hpp"
#include "spec/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "workload/crash_harness.hpp"
#include "workload/pubgraph.hpp"

namespace {

using namespace ndpgen;

int usage() {
  std::fprintf(stderr,
               "usage: ndpgen <command> [args]\n"
               "  compile <spec-file> [-o <outdir>]   generate .v, _ndp.h "
               "and report\n"
               "  report  <spec-file>                 print layouts and "
               "resource estimates\n"
               "  simulate <spec-file> <parser> [--tuples N]\n"
               "           [--stage s:field,op,value]...\n"
               "                                      run the generated PE "
               "on random tuples\n"
               "  testbench <spec-file> <parser> [--tuples N]\n"
               "           [--stage s:field,op,value]\n"
               "                                      emit a self-checking "
               "Verilog testbench\n"
               "  scan [--dataset papers|refs] [--mode sw|hw|host]\n"
               "       [--scale N] [--predicate field,op,value]...\n"
               "       [--pes N] [--threads N] [--sim-mode exact|fast]\n"
               "       [--trace FILE] [--metrics FILE]\n"
               "       [--fault-profile preset|k=v,...]\n"
               "                                      run an NDP scan on the "
               "built-in pubgraph\n"
               "                                      workload over the full "
               "simulated platform\n"
               "  query --plan <name|file|text> [--mode hw|sw]\n"
               "       [--scale N] [--pes N] [--threads N]\n"
               "       [--sim-mode exact|fast]\n"
               "       [--fault-profile preset|k=v,...]\n"
               "       [--explain] [--no-check] [--rows N] [--serve]\n"
               "       [--list-plans]\n"
               "                                      compile a logical "
               "plan to chained PE\n"
               "                                      netlists + a SW "
               "tail, execute it on the\n"
               "                                      simulated device and "
               "byte-check the result\n"
               "                                      against the naive "
               "reference executor.\n"
               "                                      --mode sw forces the "
               "host fallback cut;\n"
               "                                      --serve streams the "
               "plan through the host\n"
               "                                      query service "
               "(filter/project tails only);\n"
               "                                      --plan also accepts "
               "a suite name (see\n"
               "                                      --list-plans) or "
               "inline plan text\n"
               "  serve [--tenants N] [--qd D] [--arrival-rate R]\n"
               "       [--requests N] [--batch B] [--weights a,b,...]\n"
               "       [--closed-loop C] [--think-us T] [--span K]\n"
               "       [--max-retries N] [--backoff-us T] [--seed S]\n"
               "       [--scale N] [--mode sw|hw|host] [--pes N]\n"
               "       [--threads N] [--predicate field,op,value]...\n"
               "       [--devices N] [--replication R] [--spares S]\n"
               "       [--scrub-share F]\n"
               "       [--trace FILE] [--metrics FILE]\n"
               "       [--sim-mode exact|fast]\n"
               "       [--fault-profile preset|k=v,...]\n"
               "                                      drive the multi-tenant "
               "host query service\n"
               "                                      (NVMe queue pairs, WRR "
               "arbitration, batching)\n"
               "                                      against the NDP "
               "executor; prints per-tenant\n"
               "                                      throughput and "
               "p50/p95/p99 latency.\n"
               "                                      --devices N > 1 serves "
               "from a cluster of N\n"
               "                                      smart SSDs with R-way "
               "replication, health-\n"
               "                                      driven failover, "
               "hedged reads and spare\n"
               "                                      rebuild (see "
               "DESIGN.md §11)\n"
               "  scrub [--devices N] [--replication R] [--spares S]\n"
               "       [--requests N] [--scale N] [--seed S]\n"
               "       [--scrub-share F] [--bandwidth-mbps B]\n"
               "       [--mode sw|hw|host] [--pes N] [--threads N]\n"
               "       [--trace FILE] [--metrics FILE]\n"
               "       [--sim-mode exact|fast]\n"
               "       [--fault-profile preset|k=v,...]\n"
               "                                      replica-integrity "
               "drill: serve a query\n"
               "                                      load over a cluster "
               "with background CRC\n"
               "                                      scrubbing and seeded "
               "bit-rot (default\n"
               "                                      profile: bit-rot), "
               "then run one\n"
               "                                      anti-entropy round "
               "and report scrub /\n"
               "                                      read-repair / "
               "digest-convergence results\n"
               "  profile [--workload scan|serve] [--mode sw|hw|host]\n"
               "       [--scale N] [--pes N] [--threads N] [--top K]\n"
               "       [--tenants N] [--qd D] [--requests N] [--batch B]\n"
               "       [--arrival-rate R] [--span K] [--seed S]\n"
               "       [--predicate field,op,value]...\n"
               "       [--attribution FILE] [--trace FILE] "
               "[--metrics FILE]\n"
               "       [--sim-mode exact|fast] "
               "[--fault-profile preset|k=v,...]\n"
               "                                      run the workload with "
               "the cycle-attribution\n"
               "                                      profiler: per-phase "
               "latency breakdown\n"
               "                                      (queueing/doorbell/"
               "transfer/flash/pe/merge),\n"
               "                                      top-K slowest "
               "requests, per-tenant p99\n"
               "                                      attribution, and the "
               "hwsim idle-cycle\n"
               "                                      fraction, plus an "
               "uninstrumented control run\n"
               "  recover [--ops N] [--crash-at N] [--torn-fraction F]\n"
               "       [--seed S] [--trace FILE] [--metrics FILE]\n"
               "                                      power-fail a durable "
               "store at write step N\n"
               "                                      (0 = end of workload), "
               "recover, verify the\n"
               "                                      crash-consistency "
               "contract and print the\n"
               "                                      recovery report "
               "(kv.recovery.* metrics)\n"
               "\n"
               "  simulate and scan accept --trace FILE (Chrome trace_event "
               "JSON for\n"
               "  chrome://tracing / Perfetto) and --metrics FILE (flat "
               "metrics JSON).\n"
               "  --pes N shards the scan across N parallel PE instances "
               "(multi-PE\n"
               "  scaling; results are byte-identical to --pes 1); "
               "--threads N caps the\n"
               "  host threads driving the shards (0 = one per shard).\n"
               "  --sim-mode picks the PE-kernel fidelity: exact ticks "
               "every cycle,\n"
               "  fast (the default, or NDPGEN_SIM_MODE) fast-forwards "
               "idle gaps and\n"
               "  replays chunks analytically — stats, metrics and traces "
               "are\n"
               "  byte-identical either way.\n"
               "  --fault-profile enables the deterministic storage "
               "reliability model;\n"
               "  presets: none, aged, degraded, stress, device-loss, "
               "bit-rot (bare\n"
               "  token; later k=v items override preset fields, e.g. "
               "\"aged,seed=7\");\n"
               "  keys: seed, read_ber, wear_alpha, retention_alpha, "
               "ecc_bits,\n"
               "  retry_factor, max_retries, bad_block_rate, silent_rate,\n"
               "  nvme_timeout_rate, nvme_max_retries, pe_fault_rate,\n"
               "  device_fault (crash|brownout|linkflap), "
               "device_fault_device,\n"
               "  device_fault_at_frac, device_fault_at_us, "
               "device_fault_duration_us,\n"
               "  brownout_factor, device_bitrot_blocks, "
               "device_bitrot_device,\n"
               "  device_bitrot_at_frac, device_bitrot_at_us, "
               "device_bitrot_wrong_data\n"
               "  (device_* keys act on serve/scrub --devices clusters).\n"
               "\n"
               "  exit codes: 0 ok, 2 usage, 10-20 by error kind "
               "(see README); serve\n"
               "  exits 18 (busy) when sustained overload dropped requests "
               "after retries,\n"
               "  19 (device-unavailable) when no live replica can serve a "
               "partition, and\n"
               "  20 (integrity) when every replica of a partition holds "
               "corrupt data;\n"
               "  query exits 21 (plan-invalid) with a caret diagnostic "
               "when the plan\n"
               "  does not lex, parse or validate.\n");
  return 2;
}

/// Parses --fault-profile's value or exits with the typed diagnostic.
fault::FaultProfile parse_fault_profile(const std::string& text) {
  auto parsed = fault::FaultProfile::parse(text);
  if (!parsed.ok()) {
    throw Error(parsed.status().kind, parsed.status().message);
  }
  return std::move(parsed).value();
}

/// Parses --sim-mode's value and exports NDPGEN_SIM_MODE so every config
/// default constructed later in the process (platform, shard benches,
/// cluster devices) inherits the same PE-kernel fidelity choice.
void set_sim_mode_flag(const std::string& text) {
  hwsim::SimMode mode;
  if (!hwsim::parse_sim_mode(text, &mode)) {
    throw Error(ErrorKind::kInvalidArg,
                "invalid --sim-mode '" + text + "' (expected exact|fast)");
  }
  setenv("NDPGEN_SIM_MODE", text.c_str(), 1);
}

/// Writes the trace and/or metrics files requested via --trace/--metrics.
void write_observability(const obs::Observability& obs,
                         const obs::TraceSink& sink,
                         const std::string& trace_path,
                         const std::string& metrics_path) {
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      throw Error(ErrorKind::kInvalidArg,
                  "cannot write trace file '" + trace_path + "'");
    }
    sink.write_json(out);
    std::fprintf(stderr, "wrote %s (%zu events)\n", trace_path.c_str(),
                 sink.event_count());
  }
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      throw Error(ErrorKind::kInvalidArg,
                  "cannot write metrics file '" + metrics_path + "'");
    }
    out << obs.metrics.dump_json();
    std::fprintf(stderr, "wrote %s (%zu metrics)\n", metrics_path.c_str(),
                 obs.metrics.size());
  }
}

/// Thrown by flag parsing on a bad flag value; main() prints the usage
/// text and exits 2.
struct UsageError {};

/// Parses a --predicate value "field,op,value".
ndp::FilterPredicate parse_predicate(const std::string& text) {
  const auto pieces = support::split(text, ',');
  if (pieces.size() != 3) throw UsageError{};
  return ndp::FilterPredicate{pieces[0], pieces[1],
                              std::strtoull(pieces[2].c_str(), nullptr, 0)};
}

/// The device flags scan, serve, scrub, profile and query share, parsed
/// into the testbed they describe: --mode --scale --pes --threads
/// --sim-mode --fault-profile --trace --metrics.
struct DeviceFlags {
  core::TestbedConfig testbed = [] {
    core::TestbedConfig config;
    config.executor.mode = ndp::ExecMode::kHardware;
    return config;
  }();
  std::string trace_path;
  std::string metrics_path;
  obs::TraceSink sink;

  /// Consumes args[i] and its value when it is a device flag; false for
  /// any other argument. Throws UsageError on a bad value.
  bool parse(const std::vector<std::string>& args, std::size_t& i) {
    if (i + 1 >= args.size()) return false;
    const std::string& flag = args[i];
    const std::string& value = args[i + 1];
    ndp::ExecutorConfig& executor = testbed.executor;
    if (flag == "--mode") {
      const auto mode = ndp::parse_exec_mode(value);
      if (!mode) throw UsageError{};
      executor.mode = *mode;
    } else if (flag == "--scale") {
      testbed.scale_divisor = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--pes") {
      executor.num_pes = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
      if (executor.num_pes == 0) throw UsageError{};
    } else if (flag == "--threads") {
      executor.pe_threads = static_cast<std::uint32_t>(
          std::strtoul(value.c_str(), nullptr, 10));
    } else if (flag == "--sim-mode") {
      set_sim_mode_flag(value);
      executor.sim_mode = hwsim::sim_mode_from_env();
    } else if (flag == "--fault-profile") {
      testbed.cosmos.fault = parse_fault_profile(value);
    } else if (flag == "--trace") {
      trace_path = value;
    } else if (flag == "--metrics") {
      metrics_path = value;
    } else {
      return false;
    }
    ++i;
    return true;
  }

  [[nodiscard]] ndp::ExecMode mode() const { return testbed.executor.mode; }
  [[nodiscard]] std::uint32_t pes() const { return testbed.executor.num_pes; }
  [[nodiscard]] const fault::FaultProfile& fault() const {
    return testbed.cosmos.fault;
  }
  /// Copies the device flags into a cluster build; --fault-profile drives
  /// both the media and the device-level faults.
  void apply(cluster::ClusterBuildConfig& build) const {
    build.scale_divisor = testbed.scale_divisor;
    build.mode = mode();
    build.pes = pes();
    build.threads = testbed.executor.pe_threads;
    build.device_fault = fault();
    build.media_fault = fault();
  }
  /// The sink to attach: null unless --trace was given.
  [[nodiscard]] obs::TraceSink* trace() {
    return trace_path.empty() ? nullptr : &sink;
  }
  /// Writes the requested --trace/--metrics files.
  void write(const obs::Observability& obs) const {
    write_observability(obs, sink, trace_path, metrics_path);
  }
};

/// Runs `body`; if it throws (typed Error or otherwise), invokes `flush`
/// best-effort before rethrowing. Commands wrap their simulation phase in
/// this so a run that dies with exit code 16/18 still leaves the
/// requested --trace/--metrics files behind — the failing run is exactly
/// the one whose trace you want to look at.
template <typename Body, typename Flush>
decltype(auto) with_flush_on_error(Body&& body, Flush&& flush) {
  try {
    return std::forward<Body>(body)();
  } catch (...) {
    try {
      flush();
    } catch (...) {
      // Best-effort only: a failed flush must never mask the original
      // error (and the original exit code).
    }
    throw;
  }
}

std::string read_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw Error(ErrorKind::kInvalidArg, "cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

void print_report(const core::ParserArtifacts& artifacts) {
  std::printf("parser %s\n", artifacts.analyzed.name.c_str());
  std::printf("  input : %s", artifacts.analyzed.input.dump().c_str());
  std::printf("  output: %s", artifacts.analyzed.output.dump().c_str());
  std::printf("  filter stages: %u, operators: %zu, chunk: %u KiB\n",
              artifacts.design.filter_stage_count(),
              artifacts.design.operators.size(),
              artifacts.analyzed.chunk_size_bytes / 1024);
  const auto& in_ctx = artifacts.resources_in_context;
  const auto& ooc = artifacts.resources_out_of_context;
  std::printf("  resources: %.0f slices in-context (%.2f%% of XC7Z045), "
              "%.0f out-of-context, %.0f BRAM36\n",
              in_ctx.total.slices, in_ctx.slice_percent(), ooc.total.slices,
              in_ctx.total.bram36);
  for (const auto& [name, estimate] : in_ctx.per_module) {
    std::printf("    %-18s %8.0f slices\n", name.c_str(), estimate.slices);
  }
}

int cmd_compile(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  std::string outdir = ".";
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "-o" && i + 1 < args.size()) outdir = args[++i];
  }
  const core::Framework framework;
  const auto compiled = framework.compile(read_file(args[0]));
  for (const auto& warning : compiled.warnings) {
    std::fprintf(stderr, "%s\n", warning.to_string().c_str());
  }
  std::filesystem::create_directories(outdir);
  for (const auto& artifacts : compiled.parsers) {
    const auto base =
        std::filesystem::path(outdir) / artifacts.analyzed.name;
    std::ofstream(base.string() + ".v") << artifacts.verilog;
    std::ofstream(base.string() + "_ndp.h") << artifacts.software_interface;
    std::printf("wrote %s.v (%zu B) and %s_ndp.h (%zu B)\n",
                base.c_str(), artifacts.verilog.size(), base.c_str(),
                artifacts.software_interface.size());
    print_report(artifacts);
  }
  return 0;
}

int cmd_report(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const core::Framework framework;
  const auto compiled = framework.compile(read_file(args[0]));
  for (const auto& artifacts : compiled.parsers) print_report(artifacts);
  return 0;
}

int cmd_simulate(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  std::uint64_t tuples = 64;
  std::string trace_path;
  std::string metrics_path;
  fault::FaultProfile fault_profile;
  struct StageArg {
    std::uint32_t stage;
    std::string field, op;
    std::uint64_t value;
  };
  std::vector<StageArg> stage_args;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--tuples" && i + 1 < args.size()) {
      tuples = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else if (args[i] == "--fault-profile" && i + 1 < args.size()) {
      fault_profile = parse_fault_profile(args[++i]);
    } else if (args[i] == "--stage" && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      const auto colon = spec.find(':');
      if (colon == std::string::npos) return usage();
      const auto pieces = support::split(spec.substr(colon + 1), ',');
      if (pieces.size() != 3) return usage();
      stage_args.push_back(StageArg{
          static_cast<std::uint32_t>(
              std::strtoul(spec.substr(0, colon).c_str(), nullptr, 10)),
          pieces[0], pieces[1],
          std::strtoull(pieces[2].c_str(), nullptr, 0)});
    }
  }

  const core::Framework framework;
  const auto compiled = framework.compile(read_file(args[0]));
  const auto& artifacts = compiled.get(args[1]);
  const auto& layout = artifacts.analyzed.input;

  hwsim::PETestBench bench(artifacts.design);
  obs::TraceSink sink;
  if (!trace_path.empty()) bench.observability().trace = &sink;
  if (fault_profile.any_enabled()) {
    // A faulted simulation arms the ready/valid watchdog so a hung design
    // fails fast with a typed kSimulation error instead of running into
    // the (much larger) deadlock horizon.
    bench.kernel().set_watchdog(platform::TimingConfig{}.pe_watchdog_cycles);
    std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
  }
  // Random tuples.
  support::Xoshiro256 rng(1234);
  std::vector<std::uint8_t> data;
  data.reserve(tuples * layout.storage_bytes());
  for (std::uint64_t t = 0; t < tuples * layout.storage_bytes(); ++t) {
    data.push_back(static_cast<std::uint8_t>(rng()));
  }
  bench.memory().write_bytes(0, data);

  // Default stage config: nop everywhere.
  const auto nop = artifacts.design.operators.nop_encoding();
  for (std::uint32_t s = 0; s < artifacts.design.filter_stage_count(); ++s) {
    if (nop) bench.set_filter(s, 0, *nop, 0);
  }
  for (const auto& stage : stage_args) {
    const auto bound = ndp::bind_predicate(
        layout, artifacts.design.operators,
        ndp::FilterPredicate{stage.field, stage.op, stage.value});
    bench.set_filter(stage.stage, bound.field_select, bound.op_encoding,
                     bound.compare_value);
  }

  const auto stats = with_flush_on_error(
      [&] {
        return bench.run_chunk(0, 4 * 1024 * 1024,
                               static_cast<std::uint32_t>(data.size()));
      },
      [&] {
        write_observability(bench.observability(), sink, trace_path,
                            metrics_path);
      });
  std::printf("simulated %s: %llu tuples in, %llu out, %llu cycles "
              "(%.2f cyc/tuple, %.1f MB/s @100 MHz)\n",
              artifacts.analyzed.name.c_str(),
              static_cast<unsigned long long>(stats.tuples_in),
              static_cast<unsigned long long>(stats.tuples_out),
              static_cast<unsigned long long>(stats.cycles),
              static_cast<double>(stats.cycles) /
                  static_cast<double>(std::max<std::uint64_t>(1,
                                                              stats.tuples_in)),
              static_cast<double>(stats.payload_bytes_in) /
                  (static_cast<double>(stats.cycles) * 10e-9) / 1e6);
  for (std::size_t s = 0; s < stats.stage_pass_counts.size(); ++s) {
    std::printf("  stage %zu passed %llu\n", s,
                static_cast<unsigned long long>(stats.stage_pass_counts[s]));
  }
  write_observability(bench.observability(), sink, trace_path, metrics_path);
  return 0;
}

int cmd_scan(const std::vector<std::string>& args) {
  DeviceFlags flags;
  core::TestbedConfig& config = flags.testbed;
  std::vector<ndp::FilterPredicate> predicates;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (flags.parse(args, i)) continue;
    if (args[i] == "--dataset" && i + 1 < args.size()) {
      const auto dataset = workload::parse_dataset(args[++i]);
      if (!dataset) return usage();
      config.dataset = *dataset;
    } else if (args[i] == "--predicate" && i + 1 < args.size()) {
      predicates.push_back(parse_predicate(args[++i]));
    } else {
      return usage();
    }
  }
  if (flags.fault().any_enabled()) {
    std::fprintf(stderr, "%s\n", flags.fault().summary().c_str());
  }
  core::Testbed testbed(config, flags.trace());
  if (predicates.empty()) {
    // Default queries: papers before 1990, edges into the lower id half.
    if (config.dataset == workload::Dataset::kPapers) {
      predicates = {{"year", "lt", 1990}};
    } else {
      predicates = {{"dst", "lt", testbed.generator().paper_count() / 2}};
    }
  }

  const auto flush = [&] {
    testbed.platform().publish_metrics();
    flags.write(testbed.platform().observability());
  };
  const auto stats = with_flush_on_error(
      [&] { return testbed.executor().scan(predicates); }, flush);

  std::printf(
      "scan %s [%s]: %llu records loaded, %llu blocks, %llu scanned, "
      "%llu matched, %llu results, %.3f ms virtual\n",
      std::string(testbed.dataset().name).c_str(),
      std::string(to_string(flags.mode())).c_str(),
      static_cast<unsigned long long>(testbed.records_loaded()),
      static_cast<unsigned long long>(stats.blocks),
      static_cast<unsigned long long>(stats.tuples_scanned),
      static_cast<unsigned long long>(stats.tuples_matched),
      static_cast<unsigned long long>(stats.results),
      static_cast<double>(stats.elapsed) / 1e6);
  if (flags.mode() == ndp::ExecMode::kHardware) {
    std::printf(
        "  PE phase: %u shard%s, %llu critical-path PE cycles\n",
        stats.shards, stats.shards == 1 ? "" : "s",
        static_cast<unsigned long long>(stats.pe_phase_cycles));
  }
  if (flags.fault().any_enabled()) {
    std::printf(
        "  degraded media: %llu blocks retried, %llu uncorrectable, "
        "%llu degraded to software\n",
        static_cast<unsigned long long>(stats.blocks_retried),
        static_cast<unsigned long long>(stats.uncorrectable_blocks),
        static_cast<unsigned long long>(stats.blocks_degraded_to_software));
  }
  flush();
  return 0;
}

/// The serve report block shared by the single-device and cluster paths.
void print_serve_report(ndp::ExecMode mode, std::uint32_t pes,
                        std::uint64_t loaded,
                        const host::ServiceConfig& service_config,
                        const host::LoadGenerator& load,
                        const host::ServiceReport& report) {
  std::printf(
      "serve [%s, %u PE%s]: %llu records loaded, %llu requests "
      "(%s, %u tenant%s, qd %u)\n",
      std::string(to_string(mode)).c_str(), pes, pes == 1 ? "" : "s",
      static_cast<unsigned long long>(loaded),
      static_cast<unsigned long long>(report.submitted),
      load.open_loop() ? "open loop" : "closed loop",
      service_config.tenants, service_config.tenants == 1 ? "" : "s",
      service_config.queue_depth);
  std::printf(
      "  completed %llu, dropped %llu (%llu kBusy rejections, "
      "%llu retries), %llu results\n",
      static_cast<unsigned long long>(report.completed),
      static_cast<unsigned long long>(report.dropped),
      static_cast<unsigned long long>(report.rejected_busy),
      static_cast<unsigned long long>(report.retries),
      static_cast<unsigned long long>(report.results));
  std::printf(
      "  offloads %llu (coalesced %llu, max batch %llu), device "
      "utilization %.1f%%\n",
      static_cast<unsigned long long>(report.batches),
      static_cast<unsigned long long>(report.coalesced),
      static_cast<unsigned long long>(report.max_batch),
      100.0 * report.utilization());
  std::printf(
      "  throughput %.1f req/s over %.3f ms virtual; latency p50 %.3f ms, "
      "p95 %.3f ms, p99 %.3f ms\n",
      report.throughput_rps,
      static_cast<double>(report.makespan_ns) / 1e6,
      static_cast<double>(report.p50_ns) / 1e6,
      static_cast<double>(report.p95_ns) / 1e6,
      static_cast<double>(report.p99_ns) / 1e6);
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const host::TenantReport& tr = report.tenants[t];
    std::printf(
        "  tenant %zu: %llu submitted, %llu completed, %llu dropped, "
        "%.1f req/s, p99 %.3f ms, SQ high-water %zu\n",
        t, static_cast<unsigned long long>(tr.submitted),
        static_cast<unsigned long long>(tr.completed),
        static_cast<unsigned long long>(tr.dropped), tr.throughput_rps,
        static_cast<double>(tr.p99_ns) / 1e6, tr.sq_high_water);
  }
}

/// Overload-drop epilogue shared by both serve paths: a run that dropped
/// requests after exhausting retries exits 18 (busy).
int serve_exit_code(const host::ServiceReport& report) {
  if (report.dropped > 0) {
    std::fprintf(stderr,
                 "ndpgen: serve dropped %llu request(s) after exhausting "
                 "retries — sustained overload (busy)\n",
                 static_cast<unsigned long long>(report.dropped));
    return exit_code(ErrorKind::kBusy);
  }
  return 0;
}

int cmd_serve(const std::vector<std::string>& args) {
  host::ServiceConfig service_config;
  host::LoadConfig load_config;
  DeviceFlags flags;
  std::uint32_t devices = 1;
  std::uint32_t replication = 2;
  std::uint32_t spares = 1;
  double scrub_share = 0.0;  // 0 = scrubbing off.
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (flags.parse(args, i)) continue;
    if (args[i] == "--tenants" && i + 1 < args.size()) {
      const auto tenants = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (tenants == 0) return usage();
      service_config.tenants = tenants;
      load_config.tenants = tenants;
    } else if (args[i] == "--qd" && i + 1 < args.size()) {
      service_config.queue_depth = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--arrival-rate" && i + 1 < args.size()) {
      load_config.arrival_rate =
          std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--requests" && i + 1 < args.size()) {
      load_config.requests = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--batch" && i + 1 < args.size()) {
      service_config.batch_limit = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--weights" && i + 1 < args.size()) {
      service_config.weights.clear();
      for (const auto& piece : support::split(args[++i], ',')) {
        service_config.weights.push_back(static_cast<std::uint32_t>(
            std::strtoul(piece.c_str(), nullptr, 10)));
      }
    } else if (args[i] == "--closed-loop" && i + 1 < args.size()) {
      load_config.closed_loop_clients = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--think-us" && i + 1 < args.size()) {
      load_config.think_time =
          std::strtoull(args[++i].c_str(), nullptr, 10) *
          platform::kNsPerUs;
    } else if (args[i] == "--span" && i + 1 < args.size()) {
      load_config.span_keys = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--max-retries" && i + 1 < args.size()) {
      service_config.max_retries = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--backoff-us" && i + 1 < args.size()) {
      service_config.retry_backoff =
          std::strtoull(args[++i].c_str(), nullptr, 10) *
          platform::kNsPerUs;
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      load_config.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--devices" && i + 1 < args.size()) {
      devices = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (devices == 0) return usage();
    } else if (args[i] == "--replication" && i + 1 < args.size()) {
      replication = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (replication == 0) return usage();
    } else if (args[i] == "--spares" && i + 1 < args.size()) {
      spares = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--scrub-share" && i + 1 < args.size()) {
      scrub_share = std::strtod(args[++i].c_str(), nullptr);
      if (scrub_share < 0.0 || scrub_share >= 1.0) return usage();
    } else if (args[i] == "--predicate" && i + 1 < args.size()) {
      service_config.predicates.push_back(parse_predicate(args[++i]));
    } else {
      return usage();
    }
  }
  const fault::FaultProfile& fault_profile = flags.fault();

  if (devices > 1) {
    // Cluster mode: N member stacks + spares behind one coordinator that
    // implements host::OffloadTarget, so the same QueryService drives it.
    if (replication > devices) {
      std::fprintf(stderr,
                   "ndpgen: --replication %u exceeds --devices %u\n",
                   replication, devices);
      return usage();
    }
    cluster::ClusterBuildConfig build;
    build.devices = devices;
    build.replication = replication;
    build.spares = spares;
    flags.apply(build);
    if (scrub_share > 0.0) {
      build.scrub.enabled = true;
      build.scrub.scrub_share = scrub_share;
    }
    const auto cluster_stack = cluster::build_pubgraph_cluster(build);
    cluster::ClusterCoordinator& coord = *cluster_stack->coordinator;
    coord.observability().trace = flags.trace();
    if (fault_profile.any_enabled() ||
        fault_profile.device_fault_enabled()) {
      std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
    }

    std::uint64_t loaded = 0;
    for (std::uint32_t d = 0; d < devices; ++d) {
      loaded += coord.device(d).records_loaded();
    }
    load_config.key_space = cluster_stack->generator.paper_count();
    service_config.result_key = workload::paper_result_key;
    coord.arm_faults(load_config.requests);

    host::QueryService service(coord, service_config);
    host::LoadGenerator load(load_config);
    const auto flush = [&] {
      coord.publish_metrics();
      flags.write(coord.observability());
    };
    const host::ServiceReport report =
        with_flush_on_error([&] { return service.run(load); }, flush);

    print_serve_report(flags.mode(), flags.pes(), loaded, service_config,
                       load, report);
    const cluster::ClusterReport& cr = coord.report();
    std::printf(
        "  cluster: %u devices (R=%u, %u spare%s), %llu sub-scans "
        "(%llu timed out), %llu hedges (%llu won)\n",
        devices, replication, spares, spares == 1 ? "" : "s",
        static_cast<unsigned long long>(cr.subscans),
        static_cast<unsigned long long>(cr.subscan_failures),
        static_cast<unsigned long long>(cr.hedges),
        static_cast<unsigned long long>(cr.hedge_wins));
    std::printf(
        "  health: %llu transitions, %llu failover%s, %llu rebuild%s\n",
        static_cast<unsigned long long>(cr.health_transitions),
        static_cast<unsigned long long>(cr.failovers),
        cr.failovers == 1 ? "" : "s",
        static_cast<unsigned long long>(cr.rebuilds),
        cr.rebuilds == 1 ? "" : "s");
    if (coord.scrubbing() || cr.bitrot_blocks_injected > 0) {
      std::uint64_t verified = 0;
      std::uint64_t crc_failures = 0;
      if (coord.scrubbing()) {
        for (std::uint32_t d = 0; d < coord.device_count(); ++d) {
          verified += coord.scrub_report(d).blocks_verified;
          crc_failures += coord.scrub_report(d).crc_failures;
        }
      }
      std::printf(
          "  integrity: %llu bit-rot blocks injected, %llu blocks "
          "scrubbed (%llu CRC failures), %llu read-repair%s, %llu "
          "repair%s (%llu B restored)\n",
          static_cast<unsigned long long>(cr.bitrot_blocks_injected),
          static_cast<unsigned long long>(verified),
          static_cast<unsigned long long>(crc_failures),
          static_cast<unsigned long long>(cr.read_repairs),
          cr.read_repairs == 1 ? "" : "s",
          static_cast<unsigned long long>(cr.repairs),
          cr.repairs == 1 ? "" : "s",
          static_cast<unsigned long long>(cr.bytes_repaired));
    }

    flush();
    return serve_exit_code(report);
  }

  if (fault_profile.any_enabled()) {
    std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
  }
  core::Testbed testbed(flags.testbed, flags.trace());
  load_config.key_space = testbed.generator().paper_count();
  service_config.result_key = testbed.dataset().result_key;

  host::SingleDeviceTarget device(testbed.executor(), testbed.platform());
  host::QueryService service(device, service_config);
  host::LoadGenerator load(load_config);
  const auto flush = [&] {
    testbed.platform().publish_metrics();
    flags.write(testbed.platform().observability());
  };
  const host::ServiceReport report =
      with_flush_on_error([&] { return service.run(load); }, flush);

  print_serve_report(flags.mode(), flags.pes(), testbed.records_loaded(),
                     service_config, load, report);
  flush();
  return serve_exit_code(report);
}

int cmd_scrub(const std::vector<std::string>& args) {
  cluster::ClusterBuildConfig build;
  build.devices = 3;
  host::ServiceConfig service_config;
  host::LoadConfig load_config;
  load_config.requests = 96;
  DeviceFlags flags;
  flags.testbed.scale_divisor = build.scale_divisor;
  // Default drill: seeded rot.
  flags.testbed.cosmos.fault = parse_fault_profile("bit-rot");
  double scrub_share = 0.1;
  double bandwidth_mbps = 200.0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (flags.parse(args, i)) continue;
    if (args[i] == "--devices" && i + 1 < args.size()) {
      build.devices = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (build.devices == 0) return usage();
    } else if (args[i] == "--replication" && i + 1 < args.size()) {
      build.replication = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (build.replication == 0) return usage();
    } else if (args[i] == "--spares" && i + 1 < args.size()) {
      build.spares = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--requests" && i + 1 < args.size()) {
      load_config.requests = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      load_config.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--scrub-share" && i + 1 < args.size()) {
      scrub_share = std::strtod(args[++i].c_str(), nullptr);
      if (scrub_share <= 0.0 || scrub_share >= 1.0) return usage();
    } else if (args[i] == "--bandwidth-mbps" && i + 1 < args.size()) {
      bandwidth_mbps = std::strtod(args[++i].c_str(), nullptr);
      if (bandwidth_mbps <= 0.0) return usage();
    } else {
      return usage();
    }
  }
  if (build.replication > build.devices) {
    std::fprintf(stderr, "ndpgen: --replication %u exceeds --devices %u\n",
                 build.replication, build.devices);
    return usage();
  }

  flags.apply(build);
  build.scrub.enabled = true;
  build.scrub.scrub_share = scrub_share;
  build.scrub.bandwidth_mbps = bandwidth_mbps;
  const auto cluster_stack = cluster::build_pubgraph_cluster(build);
  cluster::ClusterCoordinator& coord = *cluster_stack->coordinator;
  coord.observability().trace = flags.trace();
  std::fprintf(stderr, "%s\n", flags.fault().summary().c_str());

  load_config.key_space = cluster_stack->generator.paper_count();
  service_config.result_key = workload::paper_result_key;
  coord.arm_faults(load_config.requests);

  host::QueryService service(coord, service_config);
  host::LoadGenerator load(load_config);
  const auto flush = [&] {
    coord.publish_metrics();
    flags.write(coord.observability());
  };
  const host::ServiceReport report =
      with_flush_on_error([&] { return service.run(load); }, flush);
  // The converging round runs through the same typed-error path: an
  // unrepairable divergence surfaces as kIntegrity, exit 20.
  const cluster::AntiEntropyReport ae =
      with_flush_on_error([&] { return coord.run_anti_entropy(); }, flush);

  const cluster::ClusterReport& cr = coord.report();
  std::uint64_t verified = 0;
  std::uint64_t bytes_scanned = 0;
  std::uint64_t transient = 0;
  std::uint64_t crc_failures = 0;
  for (std::uint32_t d = 0; d < coord.device_count(); ++d) {
    verified += coord.scrub_report(d).blocks_verified;
    bytes_scanned += coord.scrub_report(d).bytes_scanned;
    transient += coord.scrub_report(d).transient_recovered;
    crc_failures += coord.scrub_report(d).crc_failures;
  }
  std::printf(
      "scrub [%u devices, R=%u, share %.2f, %.0f MB/s]: %llu requests "
      "served\n",
      build.devices, build.replication, scrub_share, bandwidth_mbps,
      static_cast<unsigned long long>(report.completed));
  std::printf(
      "  patrol: %llu blocks verified (%llu KiB), %llu transient "
      "recoveries, %llu persistent CRC failures\n",
      static_cast<unsigned long long>(verified),
      static_cast<unsigned long long>(bytes_scanned / 1024),
      static_cast<unsigned long long>(transient),
      static_cast<unsigned long long>(crc_failures));
  std::printf(
      "  rot: %llu blocks injected; %llu read-repair%s, %llu repair%s "
      "(%llu B restored)\n",
      static_cast<unsigned long long>(cr.bitrot_blocks_injected),
      static_cast<unsigned long long>(cr.read_repairs),
      cr.read_repairs == 1 ? "" : "s",
      static_cast<unsigned long long>(cr.repairs),
      cr.repairs == 1 ? "" : "s",
      static_cast<unsigned long long>(cr.bytes_repaired));
  std::printf(
      "  anti-entropy: %llu partitions checked, %llu divergent (%llu "
      "leaf buckets), %llu replica%s repaired; converged: %s\n",
      static_cast<unsigned long long>(ae.partitions_checked),
      static_cast<unsigned long long>(ae.divergent_partitions),
      static_cast<unsigned long long>(ae.divergent_leaves),
      static_cast<unsigned long long>(ae.replicas_repaired),
      ae.replicas_repaired == 1 ? "" : "s",
      ae.converged ? "yes" : "NO");

  flush();
  if (!ae.converged) return exit_code(ErrorKind::kIntegrity);
  return serve_exit_code(report);
}

int cmd_profile(const std::vector<std::string>& args) {
  std::string workload_name = "scan";
  DeviceFlags flags;
  std::size_t top_k = 5;
  std::string attribution_path;
  std::vector<ndp::FilterPredicate> predicates;
  host::ServiceConfig service_config;
  host::LoadConfig load_config;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (flags.parse(args, i)) continue;
    if (args[i] == "--workload" && i + 1 < args.size()) {
      workload_name = args[++i];
    } else if (args[i] == "--top" && i + 1 < args.size()) {
      top_k = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--tenants" && i + 1 < args.size()) {
      const auto tenants = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
      if (tenants == 0) return usage();
      service_config.tenants = tenants;
      load_config.tenants = tenants;
    } else if (args[i] == "--qd" && i + 1 < args.size()) {
      service_config.queue_depth = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--requests" && i + 1 < args.size()) {
      load_config.requests = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--arrival-rate" && i + 1 < args.size()) {
      load_config.arrival_rate =
          std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--batch" && i + 1 < args.size()) {
      service_config.batch_limit = static_cast<std::uint32_t>(
          std::strtoul(args[++i].c_str(), nullptr, 10));
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      load_config.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--span" && i + 1 < args.size()) {
      load_config.span_keys = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--attribution" && i + 1 < args.size()) {
      attribution_path = args[++i];
    } else if (args[i] == "--predicate" && i + 1 < args.size()) {
      predicates.push_back(parse_predicate(args[++i]));
    } else {
      return usage();
    }
  }
  const bool serve = workload_name == "serve";
  if (!serve && workload_name != "scan") return usage();

  struct RunResult {
    platform::SimTime elapsed = 0;  ///< Scan elapsed / serve makespan.
    std::uint64_t completed = 0;
    std::uint64_t idle_permille = 0;
    bool have_idle = false;
  };
  // One full build-and-run of the selected workload on a fresh platform.
  // The instrumented run (profiler + sink attached) is the measurement;
  // the uninstrumented control proves the observability hooks do not
  // perturb the simulation: virtual time must come out identical, and CI
  // guards the two BENCH rows against each other.
  auto run_once = [&](obs::RequestProfiler* profiler,
                      obs::TraceSink* sink) -> RunResult {
    core::Testbed testbed(flags.testbed, sink, profiler);
    auto& cosmos = testbed.platform();
    obs::Observability& ob = cosmos.observability();
    const bool instrumented = profiler != nullptr;

    RunResult out;
    auto body = [&] {
      if (serve) {
        load_config.key_space = testbed.generator().paper_count();
        service_config.result_key = testbed.dataset().result_key;
        service_config.predicates = predicates;
        host::SingleDeviceTarget device(testbed.executor(), cosmos);
        host::QueryService service(device, service_config);
        host::LoadGenerator load(load_config);
        const host::ServiceReport report = service.run(load);
        out.elapsed = report.makespan_ns;
        out.completed = report.completed;
      } else {
        auto preds = predicates;
        if (preds.empty()) {
          preds.push_back(ndp::FilterPredicate{"year", "lt", 1990});
        }
        // A standalone scan is profiled as one pseudo-request (id 0,
        // tenant 0): the CLI mints the context the host service would
        // have minted, so the device emits the same ctx-tagged span tree.
        const platform::SimTime t0 = cosmos.events().now();
        ob.request_ctx = obs::RequestContext::mint(0);
        ndp::ScanStats stats;
        try {
          stats = testbed.executor().scan(preds);
        } catch (...) {
          ob.request_ctx = obs::RequestContext{};
          throw;
        }
        ob.request_ctx = obs::RequestContext{};
        const platform::SimTime t1 = t0 + stats.elapsed;
        if (ob.tracing()) {
          const obs::TrackId track = ob.trace->track("host.cli");
          const std::uint64_t flow = obs::RequestContext::mint(0).trace_id;
          ob.trace->complete(
              track, "request", "host", t0, stats.elapsed,
              "{\"request\":0,\"results\":" + std::to_string(stats.results) +
                  ",\"dominant\":\"" +
                  std::string(obs::phase_name(stats.phases.dominant())) +
                  "\",\"phases\":" + stats.phases.json() + "}");
          ob.trace->flow_begin(track, "request", "request", t0, flow);
          ob.trace->flow_end(track, "request", "request", t1, flow);
        }
        if (profiler != nullptr) {
          profiler->record(obs::RequestProfile{0, 0, t0, t1, stats.phases});
        }
        out.elapsed = stats.elapsed;
        out.completed = 1;
      }
      if (instrumented) {
        profiler->publish(ob.metrics);
        cosmos.publish_metrics();
        if (ob.metrics.contains("hwsim.idle_cycle_fraction")) {
          out.idle_permille =
              ob.metrics.gauge_value("hwsim.idle_cycle_fraction");
          out.have_idle = true;
        }
        flags.write(ob);
      }
    };
    if (instrumented) {
      with_flush_on_error(body, [&] {
        cosmos.publish_metrics();
        flags.write(ob);
      });
    } else {
      body();
    }
    return out;
  };

  obs::RequestProfiler profiler;
  const RunResult traced = run_once(&profiler, &flags.sink);
  const RunResult untraced = run_once(nullptr, nullptr);

  std::printf(
      "profile %s [%s, %u PE%s]: %llu request%s profiled, %.3f ms "
      "virtual\n",
      workload_name.c_str(), std::string(to_string(flags.mode())).c_str(),
      flags.pes(), flags.pes() == 1 ? "" : "s",
      static_cast<unsigned long long>(profiler.size()),
      profiler.size() == 1 ? "" : "s",
      static_cast<double>(traced.elapsed) / 1e6);
  profiler.write_report(std::cout, top_k);
  if (traced.have_idle) {
    std::printf("hwsim idle cycle fraction: %llu permille (%.1f%%)\n",
                static_cast<unsigned long long>(traced.idle_permille),
                static_cast<double>(traced.idle_permille) / 10.0);
  }
  // The control run proves observability is free in virtual time: any
  // drift here means a hook perturbed the simulation.
  const double delta =
      untraced.elapsed == 0
          ? 0.0
          : (static_cast<double>(traced.elapsed) -
             static_cast<double>(untraced.elapsed)) *
                100.0 / static_cast<double>(untraced.elapsed);
  std::printf(
      "control (uninstrumented): %.3f ms virtual, traced/untraced delta "
      "%+.3f%%\n",
      static_cast<double>(untraced.elapsed) / 1e6, delta);

  if (!attribution_path.empty()) {
    std::ofstream out(attribution_path);
    if (!out) {
      throw Error(ErrorKind::kInvalidArg,
                  "cannot write attribution file '" + attribution_path +
                      "'");
    }
    profiler.write_json(out);
    std::fprintf(stderr, "wrote %s (%zu requests)\n",
                 attribution_path.c_str(), profiler.size());
  }

  // Machine-readable companion rows, same schema as the bench binaries
  // (check_bench_regression.py pairs the *_traced/*_untraced elapsed rows
  // for the observability-overhead guard).
  if (const char* dir = std::getenv("NDPGEN_BENCH_JSON_DIR");
      dir != nullptr && *dir != '\0') {
    const std::string bench_name = "profile_" + workload_name;
    const std::string path =
        std::string(dir) + "/BENCH_" + bench_name + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "ndpgen: cannot write %s\n", path.c_str());
    } else {
      const obs::PhaseBreakdown totals = profiler.totals();
      std::vector<std::string> rows;
      for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
        rows.push_back(
            "{\"series\":\"phase_ns\",\"x\":\"" +
            std::string(obs::phase_name(static_cast<obs::RequestPhase>(p))) +
            "\",\"value\":" + obs::json_fixed(static_cast<double>(totals.ns[p])) +
            ",\"unit\":\"ns\"}");
      }
      rows.push_back("{\"series\":\"elapsed_ms\",\"x\":\"" + workload_name +
                     "_traced\",\"value\":" +
                     obs::json_fixed(static_cast<double>(traced.elapsed) /
                                     1e6) +
                     ",\"unit\":\"ms\"}");
      rows.push_back("{\"series\":\"elapsed_ms\",\"x\":\"" + workload_name +
                     "_untraced\",\"value\":" +
                     obs::json_fixed(static_cast<double>(untraced.elapsed) /
                                     1e6) +
                     ",\"unit\":\"ms\"}");
      if (traced.have_idle) {
        rows.push_back(
            "{\"series\":\"idle_fraction\",\"x\":\"hwsim\",\"value\":" +
            obs::json_fixed(static_cast<double>(traced.idle_permille)) +
            ",\"unit\":\"permille\"}");
      }
      out << "{\"bench\":\"" << obs::json_escape(bench_name)
          << "\",\"rows\":[\n";
      for (std::size_t i = 0; i < rows.size(); ++i) {
        out << rows[i] << (i + 1 < rows.size() ? ",\n" : "\n");
      }
      out << "]}\n";
      std::fprintf(stderr, "ndpgen: wrote %s (%zu rows)\n", path.c_str(),
                   rows.size());
    }
  }
  return 0;
}

int cmd_recover(const std::vector<std::string>& args) {
  workload::CrashHarnessConfig config;
  std::uint64_t crash_at = 0;
  std::string trace_path;
  std::string metrics_path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--ops" && i + 1 < args.size()) {
      config.ops = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--crash-at" && i + 1 < args.size()) {
      crash_at = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--torn-fraction" && i + 1 < args.size()) {
      config.torn_fraction = std::strtod(args[++i].c_str(), nullptr);
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      config.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--trace" && i + 1 < args.size()) {
      trace_path = args[++i];
    } else if (args[i] == "--metrics" && i + 1 < args.size()) {
      metrics_path = args[++i];
    } else {
      return usage();
    }
  }
  obs::TraceSink sink;
  if (!trace_path.empty()) config.trace = &sink;
  const workload::CrashHarness harness(config);
  // run() throws Error{kSimulation} (exit code 14) on any contract
  // violation: lost acknowledged write, half-applied boundary op, torn
  // state visible after recovery.
  // The platform (and its metrics) lives inside the harness, so an error
  // here can only flush the externally-owned trace sink.
  const workload::CrashRunResult result = with_flush_on_error(
      [&] { return harness.run(crash_at); },
      [&] {
        if (!trace_path.empty()) {
          std::ofstream out(trace_path);
          if (out) sink.write_json(out);
        }
      });
  const auto& report = result.report;
  std::printf("crash-at %llu: %s at write step %llu of %llu\n",
              static_cast<unsigned long long>(crash_at),
              result.crashed ? "power lost" : "ran to completion",
              static_cast<unsigned long long>(result.crash_step),
              static_cast<unsigned long long>(result.steps_total));
  std::printf(
      "recovered: %llu/%llu ops acknowledged, %llu records visible, "
      "state hash %016llx\n",
      static_cast<unsigned long long>(result.acked_ops),
      static_cast<unsigned long long>(harness.config().ops),
      static_cast<unsigned long long>(result.recovered_records),
      static_cast<unsigned long long>(result.state_hash));
  std::printf(
      "report: manifest %s (commit %llu, rollbacks %llu), "
      "%llu tables, %llu blocks verified, %llu torn SST blocks\n",
      report.manifest_found ? "found" : "absent",
      static_cast<unsigned long long>(report.manifest_commit_seq),
      static_cast<unsigned long long>(report.manifest_rollbacks),
      static_cast<unsigned long long>(report.tables_restored),
      static_cast<unsigned long long>(report.sst_blocks_verified),
      static_cast<unsigned long long>(report.torn_sst_blocks));
  std::printf(
      "        WAL %llu replayed, %llu skipped, %llu torn pages; "
      "%llu orphan pages GCed (%llu torn), %llu unstable blocks erased\n",
      static_cast<unsigned long long>(report.wal_entries_replayed),
      static_cast<unsigned long long>(report.wal_entries_skipped),
      static_cast<unsigned long long>(report.wal_torn_pages),
      static_cast<unsigned long long>(report.orphan_pages_discarded),
      static_cast<unsigned long long>(report.torn_pages_discarded),
      static_cast<unsigned long long>(report.unstable_blocks_erased));
  std::printf("        recovery took %llu ns simulated\n",
              static_cast<unsigned long long>(report.elapsed));
  result.platform->publish_metrics();
  write_observability(result.platform->observability(), sink, trace_path,
                      metrics_path);
  return 0;
}

int cmd_testbench(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  std::uint64_t tuples = 32;
  std::uint32_t stage = 0, field_sel = 0;
  std::string op = "nop";
  std::string field_path;
  std::uint64_t value = 0;
  for (std::size_t i = 2; i < args.size(); ++i) {
    if (args[i] == "--tuples" && i + 1 < args.size()) {
      tuples = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--stage" && i + 1 < args.size()) {
      const std::string& spec = args[++i];
      const auto colon = spec.find(':');
      const auto pieces = support::split(spec.substr(colon + 1), ',');
      if (colon == std::string::npos || pieces.size() != 3) return usage();
      stage = static_cast<std::uint32_t>(
          std::strtoul(spec.substr(0, colon).c_str(), nullptr, 10));
      field_sel = 0;  // Resolved below via bind_predicate.
      op = pieces[1];
      value = std::strtoull(pieces[2].c_str(), nullptr, 0);
      field_path = pieces[0];
    }
  }

  const core::Framework framework;
  const auto compiled = framework.compile(read_file(args[0]));
  const auto& artifacts = compiled.get(args[1]);
  const auto& layout = artifacts.analyzed.input;

  hwgen::FilterTestbenchSpec spec;
  spec.stage = stage;
  if (!field_path.empty()) {
    const auto bound = ndp::bind_predicate(
        layout, artifacts.design.operators,
        ndp::FilterPredicate{field_path, op, value});
    spec.field_select = bound.field_select;
    spec.operator_select = bound.op_encoding;
    spec.compare_value = bound.compare_value;
  } else {
    spec.field_select = field_sel;
    spec.operator_select = *artifacts.design.operators.nop_encoding();
    spec.compare_value = value;
  }

  // Deterministic random stimulus; expectation from the software-reference
  // semantics (the same contract the cycle simulator is validated against).
  support::Xoshiro256 rng(42);
  const ndp::BoundPredicate predicate{spec.field_select, spec.operator_select,
                                      spec.compare_value};
  for (std::uint64_t t = 0; t < tuples; ++t) {
    std::vector<std::uint8_t> storage(layout.storage_bytes());
    for (auto& byte : storage) byte = static_cast<std::uint8_t>(rng());
    if (ndp::eval_predicate_sw(layout, artifacts.design.operators, storage,
                               predicate)) {
      ++spec.expected_pass_count;
    }
    spec.tuples.push_back(hwsim::pad_tuple(
        layout, support::BitVector::from_bytes(storage)));
  }
  std::fputs(emit_filter_testbench(artifacts.design, spec).c_str(), stdout);
  std::fprintf(stderr,
               "testbench for %s stage %u: %llu tuples, %llu expected to "
               "pass\n",
               artifacts.analyzed.name.c_str(), stage,
               static_cast<unsigned long long>(tuples),
               static_cast<unsigned long long>(spec.expected_pass_count));
  return 0;
}

}  // namespace

/// Resolves --plan's value: suite name, then file path, then inline text.
std::string resolve_plan_source(const std::string& arg) {
  if (const auto* named = query::find_plan(arg)) return named->source;
  if (std::filesystem::exists(arg)) return read_file(arg);
  if (arg.find('{') != std::string::npos) return arg;
  throw Error(ErrorKind::kInvalidArg,
              "--plan '" + arg +
                  "' is neither a suite plan name, a readable file, nor "
                  "inline plan text (see --list-plans)");
}

int cmd_query(const std::vector<std::string>& args) {
  std::string plan_arg;
  DeviceFlags flags;
  bool explain = false;
  bool check = true;
  bool serve = false;
  std::size_t dump_rows = 10;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (flags.parse(args, i)) continue;
    if (args[i] == "--plan" && i + 1 < args.size()) {
      plan_arg = args[++i];
    } else if (args[i] == "--rows" && i + 1 < args.size()) {
      dump_rows = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--explain") {
      explain = true;
    } else if (args[i] == "--no-check") {
      check = false;
    } else if (args[i] == "--serve") {
      serve = true;
    } else if (args[i] == "--list-plans") {
      for (const auto& named : query::plan_suite()) {
        std::printf("%s:\n%s\n", named.name.c_str(), named.source.c_str());
      }
      return 0;
    } else {
      return usage();
    }
  }
  // A plan runs HW-offloaded or on the SW fallback, and writes no
  // trace or metrics files.
  if (plan_arg.empty() || flags.mode() == ndp::ExecMode::kHostClassic ||
      !flags.trace_path.empty() || !flags.metrics_path.empty()) {
    return usage();
  }
  const core::TestbedConfig& device = flags.testbed;

  const std::string source = resolve_plan_source(plan_arg);
  auto parsed = query::parse_plan(source);
  if (!parsed.ok()) {
    // The located caret diagnostic, then the typed exit code (21).
    std::fprintf(stderr, "ndpgen: %s\n",
                 spec::render_caret(parsed.status(), source).c_str());
    return exit_code(parsed.status().kind);
  }
  const query::Plan& plan = parsed.value();

  if (serve) {
    query::ServePlanConfig serve_config;
    serve_config.scale_divisor = device.scale_divisor;
    serve_config.fault = device.cosmos.fault;
    auto served = query::serve_plan(plan, serve_config);
    if (!served.ok()) {
      throw Error(served.status().kind, served.status().message);
    }
    const query::ServeReport& report = served.value();
    std::printf(
        "plan %s served: %llu completed, %llu result rows (%llu dropped "
        "by the streamable tail)\n",
        plan.name.c_str(),
        static_cast<unsigned long long>(report.service.completed),
        static_cast<unsigned long long>(report.service.results),
        static_cast<unsigned long long>(report.rows_filtered));
    std::printf(
        "  cut: %zu predicate(s) on the device HW stage, %zu row-filtered "
        "host-side%s\n",
        report.device_predicates, report.tail_predicates,
        report.projected ? ", projected" : "");
    std::printf("  p50 %.1f us, p95 %.1f us, p99 %.1f us, %.0f req/s\n",
                static_cast<double>(report.service.p50_ns) / 1e3,
                static_cast<double>(report.service.p95_ns) / 1e3,
                static_cast<double>(report.service.p99_ns) / 1e3,
                report.service.throughput_rps);
    return 0;
  }

  query::CompileOptions compile_options;
  compile_options.force_software =
      flags.mode() == ndp::ExecMode::kSoftware;
  auto compiled = query::compile_plan(plan, compile_options);
  if (!compiled.ok()) {
    std::fprintf(stderr, "ndpgen: %s\n",
                 spec::render_caret(compiled.status(), source).c_str());
    return exit_code(compiled.status().kind);
  }
  if (explain) {
    std::printf("%s\n", plan.dump().c_str());
    std::printf("%s\n", compiled.value().explain().c_str());
    if (compiled.value().probe.offloaded) {
      std::printf("%s", compiled.value().probe.pricing.dump().c_str());
    }
  }

  query::QueryExecOptions exec_options;
  exec_options.scale_divisor = device.scale_divisor;
  exec_options.pes = device.executor.num_pes;
  exec_options.threads = device.executor.pe_threads;
  exec_options.sim_mode = device.executor.sim_mode;
  exec_options.fault = device.cosmos.fault;
  if (flags.fault().any_enabled()) {
    std::fprintf(stderr, "%s\n", flags.fault().summary().c_str());
  }
  query::QueryStats stats;
  const query::ResultTable table =
      query::execute_plan(compiled.value(), exec_options, &stats);

  std::printf("%s\n", table.dump(dump_rows).c_str());
  std::printf(
      "plan %s (%s): %llu rows, fingerprint %08x\n", plan.name.c_str(),
      compiled.value().any_offloaded() ? "HW-offloaded" : "SW fallback",
      static_cast<unsigned long long>(table.rows.size()),
      table.fingerprint());
  for (const auto& leaf : stats.leaves) {
    const std::string leaf_mode =
        leaf.offloaded
            ? std::to_string(leaf.hw_filter_stages) + "-stage HW chain"
            : "SW fallback";
    std::printf(
        "  leaf %s: %s, %llu records, %llu blocks, %llu rows out, "
        "%.2f ms device\n",
        std::string(query::to_string(leaf.dataset)).c_str(),
        leaf_mode.c_str(),
        static_cast<unsigned long long>(leaf.records_loaded),
        static_cast<unsigned long long>(leaf.blocks),
        static_cast<unsigned long long>(leaf.rows_out),
        static_cast<double>(leaf.elapsed) / 1e6);
    if (leaf.blocks_degraded_to_software > 0 ||
        leaf.uncorrectable_blocks > 0) {
      std::printf("    reliability: %llu blocks degraded to SW, %llu "
                  "uncorrectable\n",
                  static_cast<unsigned long long>(
                      leaf.blocks_degraded_to_software),
                  static_cast<unsigned long long>(
                      leaf.uncorrectable_blocks));
    }
  }
  std::printf("  device %.2f ms + host %.2f ms = %.2f ms\n",
              static_cast<double>(stats.device_ns) / 1e6,
              static_cast<double>(stats.host_ns) / 1e6,
              static_cast<double>(stats.elapsed()) / 1e6);

  if (check) {
    query::ReferenceStats ref_stats;
    const query::ResultTable reference =
        query::reference_execute(plan, device.scale_divisor, &ref_stats);
    const bool equal = table.to_bytes() == reference.to_bytes();
    std::printf(
        "  reference: %llu rows, fingerprint %08x, modeled %.2f ms "
        "(host classic) -> %s\n",
        static_cast<unsigned long long>(reference.rows.size()),
        reference.fingerprint(),
        static_cast<double>(ref_stats.elapsed()) / 1e6,
        equal ? "byte-equal" : "MISMATCH");
    if (!equal) {
      throw Error(ErrorKind::kInternal,
                  "compiled execution diverges from the reference "
                  "executor for plan '" + plan.name + "'");
    }
  }
  return 0;
}

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "compile") {
      return cmd_compile({args.begin() + 1, args.end()});
    }
    if (args[0] == "report") {
      return cmd_report({args.begin() + 1, args.end()});
    }
    if (args[0] == "simulate") {
      return cmd_simulate({args.begin() + 1, args.end()});
    }
    if (args[0] == "testbench") {
      return cmd_testbench({args.begin() + 1, args.end()});
    }
    if (args[0] == "scan") {
      return cmd_scan({args.begin() + 1, args.end()});
    }
    if (args[0] == "query") {
      return cmd_query({args.begin() + 1, args.end()});
    }
    if (args[0] == "serve") {
      return cmd_serve({args.begin() + 1, args.end()});
    }
    if (args[0] == "scrub") {
      return cmd_scrub({args.begin() + 1, args.end()});
    }
    if (args[0] == "profile") {
      return cmd_profile({args.begin() + 1, args.end()});
    }
    if (args[0] == "recover") {
      return cmd_recover({args.begin() + 1, args.end()});
    }
    return usage();
  } catch (const UsageError&) {
    return usage();
  } catch (const ndpgen::Error& error) {
    // Typed failures carry their kind into the process exit code (10-17,
    // see support/error.hpp) so scripts can distinguish a bad spec from a
    // storage failure without parsing stderr; what() already leads with
    // the kind name.
    std::fprintf(stderr, "ndpgen: %s\n", error.what());
    return ndpgen::exit_code(error.kind());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ndpgen: %s\n", error.what());
    return 1;
  }
}
