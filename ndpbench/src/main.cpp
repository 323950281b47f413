// ndpbench: one command for ndpgen's benchmark (see README.md).
//
//   ndpbench --workload <scan-bulk|serve-ranges|update-lookup|query-plans>
//            --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--corrupt-oracle]
//
// setup() builds the program's state (setup_s); each iteration runs a fresh
// setup() and then the workload's fixed timed phase (run_s) on it.
// Iterations repeat while the next one still fits in S seconds (at least
// three), and setup() runs at least five times (a cheap one also for 0.2 s
// after every iteration), so the setup samples span the whole run. setup_s
// is the median setup; run_s sums, over the timed phase's fixed parts, each
// part's fastest time across iterations. The host slows down by up to half
// for spells of seconds to tens of seconds; a slowdown only ever adds time,
// so a part's minimum is the sample that the host disturbed least.
//
// Slower spells also last minutes, longer than a run. So each iteration
// also times a fixed probe that calls no ndpgen code (about 5% of the
// iteration), and both wall metrics are reported scaled by
// kReferenceProbeSeconds / (the run's median probe time): in seconds of a
// host as fast as the reference one. The unscaled times and the probe are
// per-layer metrics (bench.wall_*, bench.probe_s).
// With --trace 1 one more, traced, setup and iteration follow; their spans
// give the per-layer metrics. The traced iteration against the first
// untraced one, which also ran right after a setup, gives the tracing
// overhead.
//
// Progress goes to stderr. The last line of stdout is one JSON object
// {"correct","attempted","failed","metrics"}: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>

#include "harness.hpp"

namespace {

using namespace ndpbench;

constexpr std::size_t kMinIterations = 3;
constexpr std::size_t kMaxIterations = 256;
constexpr std::size_t kMinSetups = 5;
// A setup under kCheapSetupSeconds is also sampled for kSetupWindowSeconds
// after every iteration: a millisecond setup measured in one burst would
// see a single host phase, so its samples are spread over the run instead.
constexpr double kCheapSetupSeconds = 0.05;
constexpr double kSetupWindowSeconds = 0.2;
// Median host_probe_seconds() on the 4-vCPU Xeon VM the benchmark was tuned
// on (README.md), in its quiet spells.
constexpr double kReferenceProbeSeconds = 0.048;

struct Args {
  std::string workload;
  Options options;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "ndpbench: %s\nusage: ndpbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--corrupt-oracle]\n",
               problem);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.options.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args.seconds > 0)) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  return args;
}

std::unique_ptr<Workload> make_workload(const Args& args) {
  if (args.workload == "scan-bulk") return make_scan_bulk(args.options);
  if (args.workload == "serve-ranges") return make_serve_ranges(args.options);
  if (args.workload == "update-lookup") {
    return make_update_lookup(args.options);
  }
  if (args.workload == "query-plans") return make_query_plans(args.options);
  usage(("unknown workload " + args.workload).c_str());
}

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double value : values) total += value;
  return total;
}

/// Sum over the timed phase's parts of each part's fastest time across
/// iterations.
double min_of_parts(const std::vector<std::vector<double>>& parts) {
  double total = 0.0;
  for (std::size_t p = 0; p < parts.front().size(); ++p) {
    double fastest = parts.front()[p];
    for (const std::vector<double>& iteration : parts) {
      fastest = std::min(fastest, iteration[p]);
    }
    total += fastest;
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

void print_result(const Ledger& ledger, const std::vector<MetricSpec>& catalog,
                  const Values& values) {
  std::string line = "{\"correct\": ";
  line += ledger.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto it = values.find(catalog[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    line += (i == 0 ? "\"" : ", \"") + catalog[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" +
            catalog[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(const Args& args) {
  pin_threads(1);
  const std::unique_ptr<Workload> workload = make_workload(args);
  Ledger ledger;
  std::optional<VirtualOutcome> reference;
  const auto note = [&](const VirtualOutcome& outcome) {
    if (!reference) {
      reference = outcome;
    } else {
      ledger.check(outcome == *reference,
                   "model outputs repeat across iterations");
    }
  };

  Tracer untraced(false);
  std::vector<double> setup_s;
  const auto setup = [&] {
    const Clock::time_point setup_start = Clock::now();
    workload->setup(untraced);
    setup_s.push_back(seconds_since(setup_start));
  };
  std::vector<std::vector<double>> parts;  // [iteration][part]
  const Clock::time_point start = Clock::now();
  double longest_iteration_s = 0.0;
  std::vector<double> probe_samples_s;
  while (parts.size() < kMinIterations ||
         (seconds_since(start) + longest_iteration_s < args.seconds &&
          parts.size() < kMaxIterations)) {
    const Clock::time_point iteration_start = Clock::now();
    setup();
    parts.push_back(workload->run(untraced, ledger));
    note(workload->outcome());
    std::string line;
    for (const double part : parts.back()) {
      line += " " + std::to_string(part);
    }
    std::fprintf(stderr, "ndpbench: %s iteration %zu: run %.3f s, parts%s\n",
                 args.workload.c_str(), parts.size(), sum(parts.back()),
                 line.c_str());
    if (median(setup_s) < kCheapSetupSeconds) {
      const Clock::time_point window = Clock::now();
      while (seconds_since(window) < kSetupWindowSeconds) setup();
    }
    // Host-speed probes fill about 5% of each iteration, at least one.
    const double probe_budget_s = 0.05 * seconds_since(iteration_start);
    const Clock::time_point probes = Clock::now();
    do {
      probe_samples_s.push_back(host_probe_seconds());
    } while (seconds_since(probes) < probe_budget_s);
    longest_iteration_s =
        std::max(longest_iteration_s, seconds_since(iteration_start));
  }
  while (setup_s.size() < kMinSetups) setup();
  const double untraced_run_s = min_of_parts(parts);
  const double probe_s = median(probe_samples_s);
  const double host_scale = kReferenceProbeSeconds / probe_s;
  std::fprintf(stderr,
               "ndpbench: %s: %zu setups, median %.3f s; run %.3f s; "
               "%zu probes, median %.5f s\n",
               args.workload.c_str(), setup_s.size(), median(setup_s),
               untraced_run_s, probe_samples_s.size(), probe_s);

  if (!args.trace) {
    Values values = reference->e2e;
    values["setup_s"] = median(setup_s) * host_scale;
    values["run_s"] = untraced_run_s * host_scale;
    values["peak_rss_mb"] = peak_rss_mb();
    values["ok_frac"] =
        1.0 - static_cast<double>(ledger.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, ledger.attempted()));
    print_result(ledger, end_to_end_catalog(), values);
    return 0;
  }

  Tracer tracer(true);
  {
    const Scope scope(tracer, "setup");
    workload->setup(tracer);
  }
  double traced_run_s = 0.0;
  {
    const Scope scope(tracer, "run");
    traced_run_s = sum(workload->run(tracer, ledger));
  }
  note(workload->outcome());
  Values values = workload->layer_metrics(tracer, ledger);
  for (const auto& [name, value] : reference->counts) values[name] = value;
  add_setup_layers(tracer, values);
  const double first_run_s = sum(parts.front());
  values["bench.run_s"] = traced_run_s;
  values["bench.untraced_run_s"] = first_run_s;
  values["bench.trace_overhead_frac"] = traced_run_s / first_run_s - 1.0;
  values["bench.wall_setup_s"] = median(setup_s);
  values["bench.wall_run_s"] = untraced_run_s;
  values["bench.probe_s"] = probe_s;
  if (!args.trace_out.empty()) tracer.write_json(args.trace_out);
  print_result(ledger, per_layer_catalog(), values);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ndpbench: %s\n", error.what());
    return 1;
  }
}
