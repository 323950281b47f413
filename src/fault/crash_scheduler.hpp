// CrashScheduler: deterministic power-loss injection for the write path.
//
// The Cosmos+ OpenSSD has no power-loss protection, so a crash can strike
// in the middle of any NAND page program or block erase. The scheduler
// models exactly that: every durable write-path operation (page program,
// block erase) is one *step*; a CrashPlan names the 1-based step at which
// power is lost. The operation in flight at that step is interrupted —
// FlashModel turns an interrupted program into a *torn page* (a prefix of
// the real data followed by deterministic garbage, so any CRC over the
// page fails) and an interrupted erase into an *unstable block* — and
// every later step is silently dropped (the device is off).
//
// Determinism contract (same as fault/fault_injector.hpp): the step
// counter advances in operation order, which the single-threaded DES makes
// a pure function of the workload, and the garbage bytes are a SplitMix64
// hash of (plan seed, linear page, byte offset). Two runs with the same
// plan and workload therefore tear the exact same bytes — the property the
// crash-sweep harness's repeated-run hash check relies on.
#pragma once

#include <cstdint>

namespace ndpgen::fault {

/// What FlashModel should do with the write-path operation it just
/// reported to the scheduler.
enum class CrashAction : std::uint8_t {
  kProceed,    ///< Power is up: complete the operation normally.
  kInterrupt,  ///< Power fails DURING this operation: tear it.
  kDrop,       ///< Power already failed: the operation never reaches NAND.
};

struct CrashPlan {
  /// 1-based write step (program or erase) at which power is lost;
  /// 0 disables the scheduler (counting runs use this to learn the total
  /// step count of a workload).
  std::uint64_t crash_at_step = 0;
  /// Fraction of the page image that completes before an interrupted
  /// program loses power (the rest becomes garbage).
  double torn_fraction = 0.5;
  /// Seed for the deterministic garbage bytes of torn pages.
  std::uint64_t seed = 0xc4a5c4a5ULL;
};

class CrashScheduler {
 public:
  explicit CrashScheduler(CrashPlan plan = CrashPlan()) : plan_(plan) {}

  /// Reports one write-path operation (page program or block erase) and
  /// returns what should happen to it. Advances the step counter.
  CrashAction on_write_step() noexcept;

  [[nodiscard]] const CrashPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }
  /// Write steps observed so far (counting runs read this to size sweeps).
  [[nodiscard]] std::uint64_t steps_observed() const noexcept {
    return steps_;
  }
  /// The step that actually crashed (0 = none yet).
  [[nodiscard]] std::uint64_t crashed_step() const noexcept {
    return crashed_ ? plan_.crash_at_step : 0;
  }

  /// Re-arms the scheduler with a fresh plan (step counter restarts).
  void reset(CrashPlan plan) noexcept {
    plan_ = plan;
    steps_ = 0;
    crashed_ = false;
  }

  /// Deterministic garbage byte `index` of torn page `linear_page`.
  [[nodiscard]] std::uint8_t garbage_byte(std::uint64_t linear_page,
                                          std::uint64_t index) const noexcept;

 private:
  CrashPlan plan_;
  std::uint64_t steps_ = 0;
  bool crashed_ = false;
};

}  // namespace ndpgen::fault
