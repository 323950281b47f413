// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_profile.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "obs/json.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::bench {

/// Scale divisor for dataset-level benches; override with NDPGEN_SCALE.
/// Virtual times of throughput-bound experiments (SCAN) are multiplied
/// back to full scale (linear in the flash-bound regime); latency-bound
/// experiments (GET) are reported unscaled.
inline std::uint64_t scale_divisor(std::uint64_t fallback = 128) {
  if (const char* env = std::getenv("NDPGEN_SCALE")) {
    const auto value = std::strtoull(env, nullptr, 10);
    if (value >= 1) return value;
  }
  return fallback;
}

/// Fault profile for degraded-media bench runs, parsed from
/// $NDPGEN_FAULT_PROFILE ("key=value,..." — same syntax as the CLI's
/// --fault-profile). Unset or empty keeps the fault-free default, so
/// regular bench output stays byte-identical.
inline fault::FaultProfile fault_profile_from_env() {
  const char* env = std::getenv("NDPGEN_FAULT_PROFILE");
  if (env == nullptr || *env == '\0') return {};
  auto parsed = fault::FaultProfile::parse(env);
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench: bad NDPGEN_FAULT_PROFILE: %s\n",
                 parsed.status().message.c_str());
    std::exit(exit_code(parsed.status().kind));
  }
  return std::move(parsed).value();
}

/// Reliability counters for JSON rows; ScanStats and GetStats both carry
/// these fields, and per-operation stats accumulate into one total.
struct FaultCounters {
  std::uint64_t blocks_retried = 0;
  std::uint64_t blocks_degraded_to_software = 0;
  std::uint64_t uncorrectable_blocks = 0;

  template <typename Stats>
  void accumulate(const Stats& stats) {
    blocks_retried += stats.blocks_retried;
    blocks_degraded_to_software += stats.blocks_degraded_to_software;
    uncorrectable_blocks += stats.uncorrectable_blocks;
  }
};

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================\n");
}

inline double to_seconds(platform::SimTime time) {
  return static_cast<double>(time) / 1e9;
}

inline double to_millis(platform::SimTime time) {
  return static_cast<double>(time) / 1e6;
}

/// Machine-readable companion to a bench's stdout tables: collects rows of
/// (series, x, value [, unit]) and writes them as BENCH_<name>.json into
/// $NDPGEN_BENCH_JSON_DIR (no file is written when the variable is unset).
/// Values are rendered with obs::json_fixed, so identical runs produce
/// byte-identical files.
class JsonResult {
 public:
  explicit JsonResult(std::string name) : name_(std::move(name)) {}

  void add(std::string series, std::string x, double value,
           std::string unit = {}) {
    rows_.push_back(Row{std::move(series), std::move(x), value,
                        std::move(unit)});
  }
  void add(std::string series, std::uint64_t x, double value,
           std::string unit = {}) {
    add(std::move(series), std::to_string(x), value, std::move(unit));
  }

  /// Writes BENCH_<name>.json; returns the path, or empty when disabled.
  std::string write() const {
    const char* dir = std::getenv("NDPGEN_BENCH_JSON_DIR");
    if (dir == nullptr || *dir == '\0') return {};
    const std::string path =
        std::string(dir) + "/BENCH_" + name_ + ".json";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return {};
    }
    out << "{\"bench\":\"" << obs::json_escape(name_) << "\",\"rows\":[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& row = rows_[i];
      out << "{\"series\":\"" << obs::json_escape(row.series)
          << "\",\"x\":\"" << obs::json_escape(row.x)
          << "\",\"value\":" << obs::json_fixed(row.value);
      if (!row.unit.empty()) {
        out << ",\"unit\":\"" << obs::json_escape(row.unit) << "\"";
      }
      out << "}" << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    std::fprintf(stderr, "bench: wrote %s (%zu rows)\n", path.c_str(),
                 rows_.size());
    return path;
  }

 private:
  struct Row {
    std::string series;
    std::string x;
    double value;
    std::string unit;
  };
  std::string name_;
  std::vector<Row> rows_;
};

/// Emits the fault counters of one series into a JsonResult. Call only
/// under an enabled fault profile so default BENCH_*.json files keep their
/// pre-reliability shape.
inline void add_fault_rows(JsonResult& json, const std::string& series,
                           const FaultCounters& counters) {
  json.add(series, "blocks_retried",
           static_cast<double>(counters.blocks_retried), "blocks");
  json.add(series, "blocks_degraded_to_software",
           static_cast<double>(counters.blocks_degraded_to_software),
           "blocks");
  json.add(series, "uncorrectable_blocks",
           static_cast<double>(counters.uncorrectable_blocks), "blocks");
}

}  // namespace ndpgen::bench
