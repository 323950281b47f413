// Health monitor: flaps recover, crashes escalate, offload errors kill,
// Dead is sticky — and every transition is counted.
#include "cluster/health.hpp"

#include <gtest/gtest.h>

#include "platform/event_queue.hpp"
#include "support/error.hpp"

namespace ndpgen::cluster {
namespace {

constexpr platform::SimTime kMs = 1000 * 1000;

TEST(HealthMonitorTest, MissedBeatSuspectsAndRecoveryRestoresAlive) {
  HealthMonitor monitor(2);
  EXPECT_EQ(monitor.state(0), DeviceState::kAlive);

  monitor.record_heartbeat(0, /*reachable=*/false, 1 * kMs);
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  EXPECT_GT(monitor.error_rate(0), 0.0);

  // The flap ends inside the dead window: the device must come back.
  monitor.record_heartbeat(0, /*reachable=*/true, 2 * kMs);
  EXPECT_EQ(monitor.state(0), DeviceState::kAlive);
  EXPECT_EQ(monitor.transitions(), 2u);
  // The other device never moved.
  EXPECT_EQ(monitor.state(1), DeviceState::kAlive);
}

TEST(HealthMonitorTest, HeartbeatMissesAloneNeverKill) {
  HealthMonitor monitor(1);
  // A storm of misses inside the dead window: the EWMA saturates at 1.0,
  // far past the dead threshold, but heartbeats cannot kill — only the
  // stale-Suspect escalation can, and the window has not elapsed.
  for (int i = 0; i < 16; ++i) {
    monitor.record_heartbeat(0, false, (1 + i) * 100 * 1000);
  }
  monitor.refresh(3 * kMs);  // kDeadAfterNs is 10 ms.
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
}

TEST(HealthMonitorTest, StaleSuspectEscalatesToDeadAndStaysDead) {
  HealthMonitor monitor(1);
  monitor.record_heartbeat(0, false, 1 * kMs);
  ASSERT_EQ(monitor.state(0), DeviceState::kSuspect);

  monitor.refresh(5 * kMs);  // Inside the window: still suspect.
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  monitor.refresh(12 * kMs);  // 11 ms without a good probe.
  EXPECT_EQ(monitor.state(0), DeviceState::kDead);

  // Dead is sticky: later successes change nothing.
  monitor.record_success(0, 13 * kMs);
  monitor.record_heartbeat(0, true, 14 * kMs);
  EXPECT_EQ(monitor.state(0), DeviceState::kDead);
  EXPECT_EQ(monitor.transitions(), 2u);  // Alive->Suspect->Dead.
}

TEST(HealthMonitorTest, OffloadErrorsCanKillDirectly) {
  HealthMonitor monitor(1);
  monitor.record_error(0, 1 * kMs);  // EWMA 0.5 -> Suspect.
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  monitor.record_error(0, 2 * kMs);  // EWMA 0.75 -> Dead.
  monitor.record_error(0, 3 * kMs);
  EXPECT_EQ(monitor.state(0), DeviceState::kDead);
}

TEST(HealthMonitorTest, IntegrityErrorsSuspectButNeverKill) {
  HealthMonitor monitor(2);
  monitor.record_integrity_error(0, 1 * kMs);  // EWMA 0.5 -> Suspect.
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  // A replica that keeps serving rot must be routed around, but it still
  // answers: repair — not failover — is the proportionate response, so
  // integrity errors saturate the EWMA without ever reaching Dead.
  for (int i = 2; i <= 8; ++i) {
    monitor.record_integrity_error(0, i * kMs);
  }
  EXPECT_GT(monitor.error_rate(0), kDeadThreshold);
  EXPECT_EQ(monitor.state(0), DeviceState::kSuspect);
  EXPECT_EQ(monitor.state(1), DeviceState::kAlive);

  // Once repaired, successes decay the replica back to Alive.
  for (int i = 9; i <= 16; ++i) {
    monitor.record_success(0, i * kMs);
  }
  EXPECT_EQ(monitor.state(0), DeviceState::kAlive);
}

TEST(HealthMonitorTest, SuccessesDecayTheErrorRate) {
  HealthMonitor monitor(1);
  monitor.record_error(0, 1 * kMs);
  const double after_error = monitor.error_rate(0);
  monitor.record_success(0, 2 * kMs);
  EXPECT_LT(monitor.error_rate(0), after_error);
  EXPECT_EQ(monitor.state(0), DeviceState::kAlive);
}

TEST(HealthMonitorTest, DeclareDeadIsImmediate) {
  HealthMonitor monitor(2);
  monitor.declare_dead(1, 1 * kMs);
  EXPECT_EQ(monitor.state(1), DeviceState::kDead);
  EXPECT_EQ(monitor.state(0), DeviceState::kAlive);
}

TEST(HealthMonitorTest, ValidatesArguments) {
  EXPECT_THROW(HealthMonitor(0), Error);
  HealthMonitor monitor(1);
  EXPECT_THROW(monitor.state(3), Error);
  EXPECT_THROW(monitor.record_error(3, 0), Error);
}

}  // namespace
}  // namespace ndpgen::cluster
