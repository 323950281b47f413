// Crash-point exploration harness (tentpole of the crash-consistency PR).
//
// Runs a seeded put/delete/overwrite workload against a durable nKV store
// whose flash is wired to a fault::CrashScheduler, power-fails the device
// at an arbitrary write step, recovers a fresh store over the surviving
// flash, and checks the crash-consistency contract:
//
//   1. no acknowledged operation is lost (every op completed before the
//      crash is visible after recovery, puts and deletes alike);
//   2. the one in-flight boundary operation is atomic — it is either fully
//      visible or fully absent, never half-true;
//   3. no torn state is reachable (recovery reports zero torn committed
//      SST blocks, and every surviving record byte-compares against the
//      host-side reference model);
//   4. recovery is deterministic — the same seed and crash step always
//      produce the same recovered-state hash.
//
// The harness also rebuilds a never-crashed reference store holding the
// recovered logical state so callers with the full framework linked in
// (tests/crash, tools/crash_sweep) can additionally assert NDP scan/get
// equivalence between the recovered store and the reference.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "kv/db.hpp"
#include "platform/cosmos.hpp"

namespace ndpgen::workload {

struct CrashHarnessConfig {
  std::uint64_t ops = 160;         ///< Workload operations (puts + deletes).
  std::uint64_t key_space = 48;    ///< Distinct ids — forces overwrites.
  std::uint64_t seed = 20210521;
  double torn_fraction = 0.5;      ///< Completed fraction of a torn program.
  /// Small MemTable so the workload flushes (and compacts) many times —
  /// that is where the interesting crash points live.
  std::size_t memtable_bytes = 2 * 1024;
  std::uint32_t l1_trigger = 4;    ///< Aggressive compaction trigger.
  /// Optional trace sink attached to the crashed platform (captures the
  /// workload spans and the recovery span). Non-owning.
  obs::TraceSink* trace = nullptr;
};

struct CrashRunResult {
  bool crashed = false;          ///< False = the plan never fired.
  std::uint64_t crash_step = 0;  ///< Write step the power loss hit.
  std::uint64_t steps_total = 0; ///< Write steps observed this run.
  std::uint64_t acked_ops = 0;   ///< Fully acknowledged operations.
  bool boundary_op_applied = false;  ///< In-flight op survived recovery.
  kv::RecoveryReport report;
  /// FNV-1a over the sorted recovered (id, record) state; identical for
  /// identical (seed, crash step) by the determinism contract.
  std::uint64_t state_hash = 0;
  std::uint64_t recovered_records = 0;
  /// Recovered visible state, keyed by paper id (the reference model the
  /// invariants were checked against).
  std::map<std::uint64_t, std::vector<std::uint8_t>> state;

  /// The crashed-and-recovered store, alive for NDP-level checks.
  std::unique_ptr<platform::CosmosPlatform> platform;
  std::unique_ptr<kv::NKV> db;
  /// A never-crashed store rebuilt from `state` on pristine flash.
  std::unique_ptr<platform::CosmosPlatform> ref_platform;
  std::unique_ptr<kv::NKV> ref_db;
};

class CrashHarness {
 public:
  explicit CrashHarness(CrashHarnessConfig config = {});

  /// Runs the workload, crashing at write step `crash_at` (0 = run to
  /// completion, then power-cut before any clean shutdown), recovers, and
  /// verifies the crash-consistency contract. Throws Error{kSimulation}
  /// with a diagnostic on any violation.
  [[nodiscard]] CrashRunResult run(std::uint64_t crash_at) const;

  /// Write steps the full (uncrashed) workload performs — the sweep range.
  [[nodiscard]] std::uint64_t count_steps() const;

  [[nodiscard]] const CrashHarnessConfig& config() const noexcept {
    return config_;
  }

 private:
  CrashHarnessConfig config_;
};

}  // namespace ndpgen::workload
