#include "hwsim/kernel.hpp"

#include <cstdlib>

#include "support/error.hpp"

namespace ndpgen::hwsim {

bool parse_sim_mode(const std::string& text, SimMode* out) noexcept {
  if (text == "exact") {
    *out = SimMode::kExact;
    return true;
  }
  if (text == "fast") {
    *out = SimMode::kFast;
    return true;
  }
  return false;
}

SimMode sim_mode_from_env() {
  const char* env = std::getenv("NDPGEN_SIM_MODE");
  SimMode mode = SimMode::kFast;
  if (env != nullptr && !parse_sim_mode(env, &mode)) {
    ndpgen::raise(ErrorKind::kInvalidArg,
                  std::string("NDPGEN_SIM_MODE='") + env +
                      "' (expected 'exact' or 'fast')");
  }
  return mode;
}

void SimKernel::add_module(Module* module) {
  NDPGEN_CHECK_ARG(module != nullptr, "null module");
  modules_.push_back(module);
}

void SimKernel::tick() {
  for (Module* module : modules_) {
    module->cycle(now_);
  }
  for (auto& stream : streams_) {
    stream->commit();
  }
  // Classify the tick that just elapsed. A committed stream transfer
  // means data moved -> useful. Otherwise, in-flight module state or
  // buffered stream data that failed to move -> stalled; a completely
  // drained pipeline -> idle. Exactly one bucket per tick keeps the
  // invariant useful + stalled + idle == now().
  const std::uint64_t transfers = total_transfers();
  if (transfers != last_transfer_count_) {
    last_transfer_count_ = transfers;
    ++cycle_stats_.useful;
  } else if (quiescent()) {
    ++cycle_stats_.idle;
  } else {
    ++cycle_stats_.stalled;
  }
  ++now_;
}

bool SimKernel::quiescent() const noexcept {
  if (!streams_empty()) return false;
  for (const Module* module : modules_) {
    if (!module->idle()) return false;
  }
  return true;
}

std::uint64_t SimKernel::run_until(const std::function<bool()>& done,
                                   std::uint64_t max_cycles) {
  const std::uint64_t start = now_;
  std::uint64_t last_transfers = total_transfers();
  std::uint64_t stalled_since = now_;
  while (!done()) {
    if (now_ - start >= max_cycles) {
      ndpgen::raise(ErrorKind::kSimulation,
                    "simulation did not converge within " +
                        std::to_string(max_cycles) +
                        " cycles (possible deadlock)");
    }
    if (watchdog_cycles_ > 0) {
      const std::uint64_t transfers = total_transfers();
      if (transfers != last_transfers) {
        last_transfers = transfers;
        stalled_since = now_;
      } else if (now_ - stalled_since >= watchdog_cycles_) {
        ndpgen::raise(ErrorKind::kSimulation,
                      "watchdog: no ready/valid progress for " +
                          std::to_string(watchdog_cycles_) +
                          " cycles (hung kernel)");
      }
    }
    tick();
  }
  return now_ - start;
}

void SimKernel::reset() {
  for (Module* module : modules_) module->reset();
  for (auto& stream : streams_) stream->reset();
  now_ = 0;
  cycle_stats_ = CycleStats{};
  last_transfer_count_ = total_transfers();
}

std::uint64_t SimKernel::total_transfers() const noexcept {
  std::uint64_t total = 0;
  for (const auto& stream : streams_) total += stream->transfers();
  return total;
}

bool SimKernel::streams_empty() const noexcept {
  for (const auto& stream : streams_) {
    if (!stream->empty()) return false;
  }
  return true;
}

}  // namespace ndpgen::hwsim
