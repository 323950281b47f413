#include "cluster/health.hpp"

namespace ndpgen::cluster {

HealthMonitor::HealthMonitor(std::uint32_t devices) : entries_(devices) {
  NDPGEN_CHECK_ARG(devices >= 1, "health monitor needs at least one device");
}

void HealthMonitor::transition(Entry& entry, DeviceState next,
                               platform::SimTime now) {
  if (entry.state == next) return;
  if (entry.state == DeviceState::kDead) return;  // Dead is sticky.
  entry.state = next;
  if (next == DeviceState::kSuspect) entry.suspect_since = now;
  ++transitions_;
}

void HealthMonitor::observe(std::uint32_t device, bool ok,
                            platform::SimTime now, bool can_kill) {
  NDPGEN_CHECK_ARG(device < entries_.size(), "device out of range");
  Entry& entry = entries_[device];
  if (entry.state == DeviceState::kDead) return;
  entry.error_ewma = kHealthEwmaAlpha * (ok ? 0.0 : 1.0) +
                     (1.0 - kHealthEwmaAlpha) * entry.error_ewma;
  if (ok) entry.last_ok = now;
  if (entry.error_ewma >= kDeadThreshold && can_kill) {
    transition(entry, DeviceState::kDead, now);
  } else if (entry.error_ewma >= kSuspectThreshold) {
    transition(entry, DeviceState::kSuspect, now);
  } else if (ok) {
    transition(entry, DeviceState::kAlive, now);
  }
}

void HealthMonitor::record_heartbeat(std::uint32_t device, bool reachable,
                                     platform::SimTime now) {
  // A missed beat alone never kills — flaps must be able to recover; the
  // stale-Suspect escalation in refresh() handles devices that stay gone.
  if (!reachable) entries_.at(device).ever_missed = true;
  observe(device, reachable, now, /*can_kill=*/false);
}

void HealthMonitor::record_success(std::uint32_t device,
                                   platform::SimTime now) {
  observe(device, true, now, /*can_kill=*/false);
}

void HealthMonitor::record_error(std::uint32_t device,
                                 platform::SimTime now) {
  observe(device, false, now, /*can_kill=*/true);
}

void HealthMonitor::record_integrity_error(std::uint32_t device,
                                           platform::SimTime now) {
  // can_kill=false: corruption earns Suspect (route around, repair), never
  // Dead — the member still answers and failover would be the wrong tool.
  observe(device, false, now, /*can_kill=*/false);
}

void HealthMonitor::refresh(platform::SimTime now) {
  for (Entry& entry : entries_) {
    if (entry.state == DeviceState::kSuspect && entry.ever_missed &&
        now >= entry.last_ok &&
        now - entry.last_ok >= kDeadAfterNs) {
      transition(entry, DeviceState::kDead, now);
    }
  }
}

void HealthMonitor::declare_dead(std::uint32_t device,
                                 platform::SimTime now) {
  NDPGEN_CHECK_ARG(device < entries_.size(), "device out of range");
  transition(entries_[device], DeviceState::kDead, now);
}

DeviceState HealthMonitor::state(std::uint32_t device) const {
  NDPGEN_CHECK_ARG(device < entries_.size(), "device out of range");
  return entries_[device].state;
}

double HealthMonitor::error_rate(std::uint32_t device) const {
  NDPGEN_CHECK_ARG(device < entries_.size(), "device out of range");
  return entries_[device].error_ewma;
}

}  // namespace ndpgen::cluster
