#include "fault/crash_scheduler.hpp"

#include "support/rng.hpp"

namespace ndpgen::fault {

namespace {

[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  support::SplitMix64 mixer(x);
  return mixer.next();
}

/// Garbage stream id, disjoint from the fault_injector streams.
constexpr std::uint64_t kStreamTornGarbage = 0x746f726eULL;  // "torn"

}  // namespace

CrashAction CrashScheduler::on_write_step() noexcept {
  if (crashed_) return CrashAction::kDrop;
  ++steps_;
  if (plan_.crash_at_step != 0 && steps_ == plan_.crash_at_step) {
    crashed_ = true;
    return CrashAction::kInterrupt;
  }
  return CrashAction::kProceed;
}

std::uint8_t CrashScheduler::garbage_byte(std::uint64_t linear_page,
                                          std::uint64_t index) const noexcept {
  std::uint64_t h =
      mix64(plan_.seed ^ (kStreamTornGarbage * 0xA24BAED4963EE407ULL));
  h = mix64(h ^ (linear_page * 0x9E3779B97F4A7C15ULL));
  h = mix64(h ^ (index * 0xC2B2AE3D27D4EB4FULL));
  return static_cast<std::uint8_t>(h);
}

}  // namespace ndpgen::fault
