// Shared helpers for the figure/table reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "fault/fault_profile.hpp"
#include "kv/db.hpp"
#include "ndp/executor.hpp"
#include "obs/bench_json.hpp"
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

/// BENCH_<name>.json rows, shared with `ndpgen profile`.
using obs::JsonResult;

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
