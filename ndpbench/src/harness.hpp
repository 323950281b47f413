// ndpbench harness: wall-clock spans, the correctness ledger, the metric
// catalogs, and the device-stack helpers every workload builds through.
//
// Clocks. Every time measured here is host wall clock
// (std::chrono::steady_clock): what the simulator costs to run. Virtual
// time -- what the modelled device delivers -- comes from the ndpgen stats
// structures; the workloads report it as model outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "obs/metrics.hpp"
#include "workload/pubgraph.hpp"

namespace ndpbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// In-memory span recorder: (name, start, end, parent). Spans are written
/// out once the run ends. A disabled tracer records nothing, so untraced
/// runs pay one branch per span site.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< Seconds since the tracer was created.
    double end = 0.0;
    int parent = -1;     ///< Index of the enclosing span; -1 at the root.
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  int open(std::string_view name);
  void close(int id);
  /// Records already-measured work as a child of the innermost open span
  /// (work timed inside a callback, e.g. record generation during a bulk
  /// load).
  void add(std::string_view name, double seconds);

  /// Summed duration of every span called `name`.
  [[nodiscard]] double total(std::string_view name) const;
  /// Summed self time of the spans called `name`: duration minus the part
  /// covered by their direct children.
  [[nodiscard]] double self(std::string_view name) const;
  /// Durations of the spans called `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const;

  /// Writes {"spans":[{"name","start_s","end_s","parent"},...]}.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.open(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// Times one call into the program: adds its wall time to `sum` on every
/// run, and records it as a span named `name` when tracing.
template <typename Call>
auto timed(Tracer& tracer, std::string_view name, double& sum, Call&& call) {
  const Scope scope(tracer, name);
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<std::invoke_result_t<Call>>) {
    call();
    sum += seconds_since(start);
  } else {
    auto result = call();
    sum += seconds_since(start);
    return result;
  }
}

/// Correctness ledger: one entry per checked operation. An operation that
/// errors or disagrees with the benchmark's own expected answer fails.
class Ledger {
 public:
  void check(bool ok, std::string_view what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Metric values by name; names and units live in the catalogs below.
using Values = std::map<std::string, double>;

struct MetricSpec {
  std::string name;
  std::string unit;
};
/// Every end-to-end metric (printed with --trace 0), in output order.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_catalog();
/// Every per-layer metric (printed with --trace 1); 0 where a workload
/// bypasses the layer.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_catalog();

/// Model outputs of one timed phase. They are deterministic per seed, so
/// every iteration's copy must be identical.
struct VirtualOutcome {
  Values e2e;     ///< virt_* end-to-end metrics and served_frac.
  Values counts;  ///< Per-layer counts and virtual phase sums.
  bool operator==(const VirtualOutcome&) const = default;
};

struct Options {
  std::uint64_t seed = 20210521;
  /// Perturbs one expected answer so the ledger must report a failure.
  bool corrupt_oracle = false;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the program's state, replacing any previous one: spec compile,
  /// datagen and store build (setup_s).
  virtual void setup(Tracer& tracer) = 0;
  /// Runs the fixed timed phase on the state setup() built (it may change
  /// that state: every run gets a fresh setup()) and checks
  /// every output outside the timed calls. Returns the wall time of the
  /// timed calls, split into the phase's fixed parts (one entry per
  /// offload, rate, 1,000 writes or plan).
  virtual std::vector<double> run(Tracer& tracer, Ledger& ledger) = 0;
  /// Model outputs of the last run().
  [[nodiscard]] virtual VirtualOutcome outcome() const = 0;
  /// Per-layer wall metrics of the last (traced) setup() + run(). May
  /// replay layer calls after the timed phase.
  virtual Values layer_metrics(const Tracer& tracer, Ledger& ledger) = 0;
};

std::unique_ptr<Workload> make_scan_bulk(const Options& options);
std::unique_ptr<Workload> make_serve_ranges(const Options& options);
std::unique_ptr<Workload> make_update_lookup(const Options& options);
std::unique_ptr<Workload> make_query_plans(const Options& options);

/// Restricts the calling thread, and the threads it starts afterwards, to
/// `count` host CPUs: first the one it ran on when first called, then the
/// next allowed ones. Migrations between the host's vCPUs were the largest
/// source of wall-clock noise, so ndpbench runs on one CPU and widens to
/// two only around the two-thread sharded scan.
void pin_threads(std::size_t count);

/// Host-speed probe: wall seconds of a fixed scan-like kernel that calls no
/// ndpgen code. It copies each 32 KiB block of a fixed 8 MiB buffer, runs a
/// CRC-32 over the copy and projects every 128-byte record whose u32 at
/// offset 8 is divisible by 3 into a fresh result vector; then it makes
/// 131,072 dependent loads around a random cycle through 16 MiB.
[[nodiscard]] double host_probe_seconds();

// --- Statistics -----------------------------------------------------------

/// Median as Python's statistics.median; 0 when empty.
[[nodiscard]] double median(std::vector<double> samples);
/// Exact nearest-rank percentile, p in (0, 1]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] inline double ms(std::uint64_t ns) {
  return static_cast<double>(ns) / 1e6;
}

/// Virtual metrics of a closed-loop workload with one load level: its
/// per-operation latencies stand for the p99 at both ends of the (single)
/// rate range, and its rate is operations per virtual second.
[[nodiscard]] Values closed_loop_virtual(
    const std::vector<std::uint64_t>& latency_ns, std::uint64_t virtual_ns,
    std::uint64_t operations);

/// Adds virt.phase.<phase>_ms for every phase of `phases`.
void add_phases(const ndpgen::obs::PhaseBreakdown& phases, Values& out);

/// Adds the setup-phase layers (workload.gen_s, kv.bulk_load_self_s,
/// core.compile_s) from a traced setup().
void add_setup_layers(const Tracer& tracer, Values& out);

// --- Oracle side: independent of the code being measured -----------------

/// SplitMix64 stream for benchmark-generated inputs (op streams, plan
/// constants). It lives here so the inputs never change with the program.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) noexcept;

 private:
  std::uint64_t state_;
};

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// PaperResult fields as the spec declares them: packed little-endian
/// id u64, year u32, venue_id u32, n_refs u32, n_cited u32.
struct PaperFields {
  std::uint64_t id = 0;
  std::uint32_t year = 0;
  std::uint32_t venue_id = 0;
  std::uint32_t n_refs = 0;
  std::uint32_t n_cited = 0;
  bool operator==(const PaperFields&) const = default;
};
inline constexpr std::size_t kPaperResultBytes = 24;

[[nodiscard]] PaperFields fields_of(const ndpgen::workload::PaperRecord& p);
/// Decodes a projected result record; false when it has the wrong size.
[[nodiscard]] bool decode_result(std::span<const std::uint8_t> record,
                                 PaperFields& out);
/// Order-independent digest term of one projected record.
[[nodiscard]] std::uint64_t digest(const PaperFields& fields) noexcept;

// --- Device stacks ----------------------------------------------------------

/// Platform config of every workload: fast sim mode, no fault profile.
[[nodiscard]] ndpgen::platform::CosmosConfig fast_platform();
/// The papers store (128-byte records keyed by id).
[[nodiscard]] ndpgen::kv::DBConfig paper_store_config();
/// Executor over the PaperScan parser; `pe` is used in hardware mode.
[[nodiscard]] ndpgen::ndp::ExecutorConfig executor_config(
    ndpgen::ndp::ExecMode mode, std::size_t pe);

/// Compiles the pubgraph spec and attaches PaperScan's PE (span
/// "core.compile"). Returns the PE index.
std::size_t compile_and_attach(const ndpgen::core::Framework& framework,
                               ndpgen::core::CompileResult& compiled,
                               ndpgen::platform::CosmosPlatform& cosmos,
                               Tracer& tracer);

/// Bulk-loads every generated paper into C2 through the benchmark's own
/// callback (span "kv.bulk_load", child "workload.gen" when tracing).
/// `visit` sees each generated record: the oracle hook.
std::uint64_t load_papers(
    ndpgen::kv::NKV& db, const ndpgen::workload::PubGraphGenerator& generator,
    Tracer& tracer,
    const std::function<void(const ndpgen::workload::PaperRecord&)>& visit);

/// Deterministic program counters read from a platform's registry.
struct DeviceCounts {
  std::uint64_t cycles_useful = 0;
  std::uint64_t cycles_stalled = 0;
  std::uint64_t cycles_idle = 0;
  std::uint64_t tuples_scanned = 0;
  std::uint64_t results = 0;
  std::uint64_t sst_blocks_read = 0;

  [[nodiscard]] static DeviceCounts read(
      const ndpgen::obs::MetricsRegistry& metrics);
  /// Counts accumulated since `before`.
  [[nodiscard]] DeviceCounts since(const DeviceCounts& before) const;
  DeviceCounts& operator+=(const DeviceCounts& other);
  /// Adds hwsim.cycles_*, ndp.tuples_scanned, ndp.results, ndp.match_frac
  /// and kv.sst_blocks_read.
  void add_to(Values& out) const;
};

}  // namespace ndpbench
