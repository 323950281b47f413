// Cycle-level simulation kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hwsim/stream.hpp"

namespace ndpgen::obs {
struct Observability;
}  // namespace ndpgen::obs

namespace ndpgen::hwsim {

/// Simulation fidelity selector. kExact ticks the PE's module netlist
/// every cycle; kFast replays each PE chunk with the fused chunk engine
/// (FastChunkEngine) and ticks exactly any chunk the engine declines.
/// The two modes are required to produce byte-identical stats, metrics
/// and traces — fast mode only changes wall-clock cost, never results.
enum class SimMode : std::uint8_t { kExact, kFast };

/// Reads NDPGEN_SIM_MODE ("exact" or "fast"); unset -> kFast, so every
/// test and bench continuously validates the fast path against the
/// committed expectations. Throws Error{kInvalidArg} on any other value.
[[nodiscard]] SimMode sim_mode_from_env();

/// Parses "exact"/"fast"; returns false on unknown input.
bool parse_sim_mode(const std::string& text, SimMode* out) noexcept;

/// A clocked hardware module. cycle() is called once per clock tick; all
/// stream pushes performed inside it become visible next tick.
class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  virtual void cycle(std::uint64_t now) = 0;
  virtual void reset() {}

  /// True when the module has in-flight work (used for busy detection).
  [[nodiscard]] virtual bool idle() const noexcept { return true; }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  std::string name_;
};

/// Per-kernel cycle classification: every tick lands in exactly one
/// bucket, so useful + stalled + idle == cycles simulated. "Useful" means
/// at least one stream transfer committed this tick (data moved through
/// the pipeline); "idle" means nothing could have moved (all modules
/// idle, all streams empty); "stalled" is everything between — modules
/// hold in-flight work but no transfer fired (backpressure, memory wait).
struct CycleStats {
  std::uint64_t useful = 0;
  std::uint64_t stalled = 0;
  std::uint64_t idle = 0;

  [[nodiscard]] std::uint64_t total() const noexcept {
    return useful + stalled + idle;
  }
  CycleStats& operator+=(const CycleStats& other) noexcept {
    useful += other.useful;
    stalled += other.stalled;
    idle += other.idle;
    return *this;
  }
  CycleStats operator-(const CycleStats& other) const noexcept {
    return CycleStats{useful - other.useful, stalled - other.stalled,
                      idle - other.idle};
  }
};

/// Owns modules and streams; advances the clock.
class SimKernel {
 public:
  /// Registers a module; evaluation order is registration order.
  void add_module(Module* module);

  /// Creates a stream owned by the kernel.
  template <typename T>
  Stream<T>* make_stream(std::string name, std::size_t depth = 2) {
    auto stream = std::make_unique<Stream<T>>(std::move(name), depth);
    Stream<T>* raw = stream.get();
    streams_.push_back(std::move(stream));
    return raw;
  }

  /// Advances one clock cycle.
  void tick();

  /// Advances until `done()` returns true or `max_cycles` elapse.
  /// Returns the number of cycles advanced. Throws Error{kSimulation} on
  /// timeout (deadlock detection) and, when a watchdog horizon is set,
  /// when no stream makes ready/valid progress for that many consecutive
  /// cycles (hung-kernel detection — fires long before the hard timeout).
  std::uint64_t run_until(const std::function<bool()>& done,
                          std::uint64_t max_cycles = 100'000'000);

  /// Arms the ready/valid watchdog: run_until raises kSimulation when the
  /// total stream transfer count stays flat for `cycles` consecutive
  /// cycles before `done()` holds. 0 (the default) disables it.
  void set_watchdog(std::uint64_t cycles) noexcept {
    watchdog_cycles_ = cycles;
  }
  [[nodiscard]] std::uint64_t watchdog_cycles() const noexcept {
    return watchdog_cycles_;
  }

  /// Sum of transfers() over all streams (the watchdog progress signal).
  [[nodiscard]] std::uint64_t total_transfers() const noexcept;

  /// Resets modules, streams and the cycle counter.
  void reset();

  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }

  /// Cumulative cycle classification since construction/reset.
  /// Invariant: cycle_stats().total() == now() (every tick classified).
  [[nodiscard]] const CycleStats& cycle_stats() const noexcept {
    return cycle_stats_;
  }

  /// True when every registered stream is empty.
  [[nodiscard]] bool streams_empty() const noexcept;

  /// All streams owned by the kernel (for FIFO high-water publication).
  [[nodiscard]] const std::vector<std::unique_ptr<StreamBase>>& streams()
      const noexcept {
    return streams_;
  }

  /// Observability context shared by the modules running under this
  /// kernel. Null (the default) disables all instrumentation.
  void set_observability(obs::Observability* obs) noexcept { obs_ = obs; }
  [[nodiscard]] obs::Observability* observability() const noexcept {
    return obs_;
  }

 private:
  friend class FastChunkEngine;

  /// True when the current (frozen) state would classify as an idle
  /// tick: all streams empty and all modules idle.
  [[nodiscard]] bool quiescent() const noexcept;

  std::vector<Module*> modules_;
  std::vector<std::unique_ptr<StreamBase>> streams_;
  std::uint64_t now_ = 0;
  CycleStats cycle_stats_;
  std::uint64_t last_transfer_count_ = 0;  ///< For useful-tick detection.
  std::uint64_t watchdog_cycles_ = 0;  ///< 0 = watchdog disabled.
  obs::Observability* obs_ = nullptr;  ///< Non-owning.
};

}  // namespace ndpgen::hwsim
