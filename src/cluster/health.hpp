// Per-device health tracking for the cluster frontend.
//
// The coordinator probes every active device at each dispatch (the
// heartbeat — in a discrete-event world the probe is free and happens at
// a known virtual time) and reports per-sub-scan outcomes. Health fuses
// two signals:
//
//  * heartbeat staleness — a device whose link was down at probe time
//    misses the beat; miss once -> Suspect, miss past the dead timeout ->
//    Dead;
//  * an error-rate EWMA over sub-scan outcomes — a device that keeps
//    failing offloads goes Suspect above the suspect threshold and Dead
//    above the dead threshold, and decays back to Alive on successes
//    (transient flaps recover, crashes do not).
//
// Transitions are pure functions of the recorded (outcome, time) stream,
// so the failover timeline is byte-deterministic. Dead is sticky: a dead
// device never serves again (its replacement spare does).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "platform/event_queue.hpp"
#include "support/error.hpp"

namespace ndpgen::cluster {

enum class DeviceState : std::uint8_t { kAlive, kSuspect, kDead };

[[nodiscard]] constexpr std::string_view to_string(
    DeviceState state) noexcept {
  switch (state) {
    case DeviceState::kAlive: return "alive";
    case DeviceState::kSuspect: return "suspect";
    case DeviceState::kDead: return "dead";
  }
  return "?";
}

/// EWMA smoothing factor for the per-device error rate.
inline constexpr double kHealthEwmaAlpha = 0.5;
/// Error-rate EWMA at or above this -> Suspect (stop preferring the device).
inline constexpr double kSuspectThreshold = 0.4;
/// Error-rate EWMA at or above this -> Dead (trigger failover + rebuild).
inline constexpr double kDeadThreshold = 0.75;
/// A Suspect device whose last successful probe is older than this
/// (virtual ns) escalates to Dead even without further offload errors —
/// the path that retires a crashed member nobody routes work to. Must
/// exceed the transient-fault windows (link flaps, brownouts) so those
/// recover instead of being rebuilt around.
inline constexpr platform::SimTime kDeadAfterNs = 10 * 1000 * 1000;  // 10 ms

class HealthMonitor {
 public:
  explicit HealthMonitor(std::uint32_t devices);

  /// Heartbeat probe result for `device` at virtual time `now`.
  void record_heartbeat(std::uint32_t device, bool reachable,
                        platform::SimTime now);

  /// Outcome of one offloaded sub-scan on `device`.
  void record_success(std::uint32_t device, platform::SimTime now);
  void record_error(std::uint32_t device, platform::SimTime now);

  /// A detected integrity fault (persistent CRC failure or digest
  /// divergence) on `device`. Counts into the same error EWMA — repeated
  /// corruption drives a replica to Suspect so reads route around it —
  /// but never to Dead on its own: the device still answers, and repair
  /// (not failover) is the proportionate response.
  void record_integrity_error(std::uint32_t device, platform::SimTime now);

  /// Escalates stale Suspect devices to Dead; call at each dispatch.
  void refresh(platform::SimTime now);

  /// Marks a device Dead unconditionally (the coordinator's verdict after
  /// replica exhaustion; also used when a spare replaces a member).
  void declare_dead(std::uint32_t device, platform::SimTime now);

  [[nodiscard]] DeviceState state(std::uint32_t device) const;
  [[nodiscard]] double error_rate(std::uint32_t device) const;
  [[nodiscard]] std::uint32_t devices() const noexcept {
    return static_cast<std::uint32_t>(entries_.size());
  }
  /// State-change count (Alive->Suspect, Suspect->Dead, Suspect->Alive);
  /// feeds the cluster.health.transitions metric.
  [[nodiscard]] std::uint64_t transitions() const noexcept {
    return transitions_;
  }

 private:
  struct Entry {
    DeviceState state = DeviceState::kAlive;
    double error_ewma = 0.0;
    platform::SimTime last_ok = 0;       ///< Last reachable probe/success.
    platform::SimTime suspect_since = 0;
    bool ever_missed = false;
  };

  void observe(std::uint32_t device, bool ok, platform::SimTime now,
               bool can_kill);
  void transition(Entry& entry, DeviceState next, platform::SimTime now);

  std::vector<Entry> entries_;
  std::uint64_t transitions_ = 0;
};

}  // namespace ndpgen::cluster
