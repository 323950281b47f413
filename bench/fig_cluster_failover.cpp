// Smart-SSD cluster — tail latency through a device loss and recovery.
//
// The paper's accelerators live inside storage devices; deployments run
// fleets of them, so the robustness question a storage evaluation asks is
// not "does one device compute correctly" but "what happens to the SLO
// when a device dies mid-workload". This bench drives the replicated
// cluster frontend (4 members, R=2, 1 spare) through that story:
//
//  1. calibrate saturation capacity of the healthy cluster with a closed
//     loop, then fix the offered load at 0.5x capacity (below the knee,
//     so every latency shift is failure handling, not queueing);
//  2. run a two-segment timeline on a healthy cluster: segment A and a
//     continuation segment B (the steady-state reference for both the
//     crash window and the recovered tail);
//  3. replay the identical timeline with the "device-loss" fault profile
//     armed: device 0 crashes at the mid-segment-A doorbell, health
//     escalates it Suspect -> Dead, its partitions fail over to the
//     spare, and the rebuild copy contends with foreground scans.
//     Segment B then starts only after the rebuild completes — it
//     measures the *recovered* cluster;
//  4. acceptance (ISSUE): zero dropped queries through the crash, result
//     counts byte-equal to the healthy run, and recovered p99 <= 2x the
//     steady-state p99 of the same segment;
//  5. determinism: the faulted timeline — including the failure timeline
//     itself — replays byte-identically and is --threads-invariant.
//
// All times are virtual; BENCH "failover_p99" rows feed the
// failover-p99 rule of the CI bench guard.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/pubgraph_cluster.hpp"
#include "host/service.hpp"

using namespace ndpgen;

namespace {

constexpr std::uint64_t kSegmentRequests = 96;
constexpr std::uint64_t kLoadSeed = 20210521;

struct Timeline {
  host::ServiceReport segment_a;  ///< Crash lands mid-A (faulted runs).
  host::ServiceReport segment_b;  ///< Starts after rebuild completes.
  cluster::ClusterReport cluster;
  platform::SimTime recovered_start = 0;
  bool crash_fired = false;
  bool spare_serving = false;
};

host::ServiceReport run_segment(cluster::ClusterCoordinator& coordinator,
                                std::uint64_t key_space,
                                std::uint64_t arrival_rate,
                                std::uint64_t seed,
                                platform::SimTime start_ns,
                                std::uint32_t closed_loop_clients,
                                std::uint64_t requests) {
  host::ServiceConfig service_config;
  service_config.tenants = 4;
  service_config.queue_depth = 16;
  service_config.result_key = workload::paper_result_key;

  host::LoadConfig load_config;
  load_config.tenants = 4;
  load_config.requests = requests;
  load_config.arrival_rate = std::max<std::uint64_t>(1, arrival_rate);
  load_config.closed_loop_clients = closed_loop_clients;
  load_config.key_space = key_space;
  load_config.seed = seed;
  load_config.start_ns = start_ns;

  host::QueryService service(coordinator, service_config);
  host::LoadGenerator load(load_config);
  return service.run(load);
}

/// Builds a fresh cluster and runs the two-segment timeline against it.
Timeline run_timeline(std::uint64_t scale, std::uint64_t arrival_rate,
                      const fault::FaultProfile& device_fault,
                      std::uint32_t threads) {
  cluster::ClusterBuildConfig build;
  build.scale_divisor = scale;
  build.threads = threads;
  build.device_fault = device_fault;
  const auto cluster = cluster::build_pubgraph_cluster(build);
  auto& coordinator = *cluster->coordinator;
  // Mid-segment-A crash: the device-loss preset triggers at 0.5x the
  // armed budget's doorbells, and below the knee batches stay near 1.
  coordinator.arm_faults(kSegmentRequests);
  const std::uint64_t key_space = cluster->generator.paper_count();

  Timeline timeline;
  timeline.segment_a = run_segment(coordinator, key_space, arrival_rate,
                                   kLoadSeed, 0, 0, kSegmentRequests);
  // Segment B measures the recovered cluster: resume the arrival clock
  // after the device timeline *and* any rebuild copy have finished.
  timeline.recovered_start = coordinator.device_now();
  for (const auto& job : coordinator.rebuild().jobs()) {
    timeline.recovered_start =
        std::max(timeline.recovered_start, job.completes);
  }
  timeline.segment_b = run_segment(coordinator, key_space, arrival_rate,
                                   kLoadSeed + 1, timeline.recovered_start,
                                   0, kSegmentRequests);
  timeline.cluster = coordinator.report();
  timeline.crash_fired = coordinator.injector().fired_at().has_value();
  for (const auto& job : coordinator.rebuild().jobs()) {
    timeline.spare_serving =
        timeline.spare_serving ||
        coordinator.rebuild().spare_ready_at(job.spare,
                                             coordinator.device_now());
  }
  return timeline;
}

bool reports_equal(const host::ServiceReport& a,
                   const host::ServiceReport& b) {
  return a.submitted == b.submitted && a.retries == b.retries &&
         a.rejected_busy == b.rejected_busy && a.dropped == b.dropped &&
         a.completed == b.completed && a.results == b.results &&
         a.batches == b.batches && a.coalesced == b.coalesced &&
         a.max_batch == b.max_batch && a.makespan_ns == b.makespan_ns &&
         a.device_busy_ns == b.device_busy_ns && a.p50_ns == b.p50_ns &&
         a.p95_ns == b.p95_ns && a.p99_ns == b.p99_ns &&
         a.phases.ns == b.phases.ns;
}

bool cluster_reports_equal(const cluster::ClusterReport& a,
                           const cluster::ClusterReport& b) {
  return a.queries == b.queries && a.subscans == b.subscans &&
         a.subscan_failures == b.subscan_failures && a.hedges == b.hedges &&
         a.hedge_wins == b.hedge_wins && a.failovers == b.failovers &&
         a.rebuilds == b.rebuilds &&
         a.health_transitions == b.health_transitions;
}

bool timelines_equal(const Timeline& a, const Timeline& b) {
  return reports_equal(a.segment_a, b.segment_a) &&
         reports_equal(a.segment_b, b.segment_b) &&
         cluster_reports_equal(a.cluster, b.cluster) &&
         a.recovered_start == b.recovered_start &&
         a.crash_fired == b.crash_fired;
}

void print_segment(const char* label, const host::ServiceReport& report) {
  std::printf("%12s | %6llu %6llu %9.0f %9.3f %9.3f %6llu\n", label,
              static_cast<unsigned long long>(report.completed),
              static_cast<unsigned long long>(report.results),
              report.throughput_rps, bench::to_millis(report.p50_ns),
              bench::to_millis(report.p99_ns),
              static_cast<unsigned long long>(report.dropped));
}

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(2048);
  bench::print_header(
      "Smart-SSD cluster — device loss, failover and tail recovery",
      "replicated NDP smart-storage deployment (this work)");
  std::printf("topology: 4 members, R=2, 1 spare; papers at 1/%llu scale "
              "(set NDPGEN_SCALE to change)\n\n",
              static_cast<unsigned long long>(scale));

  auto profile = fault::FaultProfile::parse("device-loss");
  const fault::FaultProfile device_loss = profile.value_or_raise();
  const fault::FaultProfile fault_free;

  // --- 1. closed-loop capacity of the healthy cluster, then 0.5x load.
  cluster::ClusterBuildConfig calibration_build;
  calibration_build.scale_divisor = scale;
  const auto calibration = cluster::build_pubgraph_cluster(calibration_build);
  const auto saturated = run_segment(
      *calibration->coordinator, calibration->generator.paper_count(),
      1000, kLoadSeed, 0, /*closed_loop_clients=*/32, /*requests=*/64);
  const double capacity = saturated.throughput_rps;
  const auto arrival_rate =
      static_cast<std::uint64_t>(std::llround(capacity * 0.5));
  std::printf("closed-loop capacity: %.0f req/s; open-loop timelines run "
              "at 0.5x = %llu req/s\n\n",
              capacity, static_cast<unsigned long long>(arrival_rate));

  // --- 2.+3. healthy reference timeline vs device-loss timeline.
  const Timeline healthy =
      run_timeline(scale, arrival_rate, fault_free, /*threads=*/0);
  const Timeline faulted =
      run_timeline(scale, arrival_rate, device_loss, /*threads=*/0);

  std::printf("%12s | %6s %6s %9s %9s %9s %6s\n", "segment", "done",
              "rows", "tput r/s", "p50 [ms]", "p99 [ms]", "drop");
  print_segment("steady A", healthy.segment_a);
  print_segment("steady B", healthy.segment_b);
  print_segment("crash A", faulted.segment_a);
  print_segment("recovered B", faulted.segment_b);
  std::printf("\nfailure timeline: crash %s, %llu health transitions, "
              "%llu failover(s), %llu rebuild(s), %llu sub-scan failures, "
              "%llu hedges (%llu won), spare %s\n",
              faulted.crash_fired ? "fired" : "DID NOT FIRE",
              static_cast<unsigned long long>(
                  faulted.cluster.health_transitions),
              static_cast<unsigned long long>(faulted.cluster.failovers),
              static_cast<unsigned long long>(faulted.cluster.rebuilds),
              static_cast<unsigned long long>(
                  faulted.cluster.subscan_failures),
              static_cast<unsigned long long>(faulted.cluster.hedges),
              static_cast<unsigned long long>(faulted.cluster.hedge_wins),
              faulted.spare_serving ? "serving" : "NOT SERVING");

  // --- 5. the failure timeline itself is part of the determinism
  // contract: byte-equal replay, --threads-invariant.
  const Timeline rerun =
      run_timeline(scale, arrival_rate, device_loss, /*threads=*/0);
  const Timeline threaded =
      run_timeline(scale, arrival_rate, device_loss, /*threads=*/4);
  const bool reproducible = timelines_equal(faulted, rerun);
  const bool thread_invariant = timelines_equal(faulted, threaded);
  std::printf("determinism: rerun %s, threads 0/4 %s\n",
              reproducible ? "identical" : "DIVERGED",
              thread_invariant ? "identical" : "DIVERGED");

  bench::JsonResult json("fig_cluster_failover");
  json.add("capacity", "closed", capacity, "rps");
  json.add("failover_p99", "steady", bench::to_millis(healthy.segment_b.p99_ns),
           "ms");
  json.add("failover_p99", "crash", bench::to_millis(faulted.segment_a.p99_ns),
           "ms");
  json.add("failover_p99", "recovered",
           bench::to_millis(faulted.segment_b.p99_ns), "ms");
  json.add("throughput", "steady", healthy.segment_b.throughput_rps, "rps");
  json.add("throughput", "crash", faulted.segment_a.throughput_rps, "rps");
  json.add("throughput", "recovered", faulted.segment_b.throughput_rps,
           "rps");
  json.add("cluster", "failovers",
           static_cast<double>(faulted.cluster.failovers));
  json.add("cluster", "rebuilds",
           static_cast<double>(faulted.cluster.rebuilds));
  json.add("cluster", "subscan_failures",
           static_cast<double>(faulted.cluster.subscan_failures));
  json.add("cluster", "hedges", static_cast<double>(faulted.cluster.hedges));
  json.write();

  // Shape checks — the ISSUE acceptance criteria for the failover story.
  const bool failed_over = faulted.crash_fired &&
                           faulted.cluster.failovers == 1 &&
                           faulted.cluster.rebuilds == 1 &&
                           faulted.spare_serving &&
                           healthy.cluster.failovers == 0;
  const bool nothing_dropped =
      healthy.segment_a.dropped == 0 && healthy.segment_b.dropped == 0 &&
      faulted.segment_a.dropped == 0 && faulted.segment_b.dropped == 0 &&
      faulted.segment_a.completed == kSegmentRequests &&
      faulted.segment_b.completed == kSegmentRequests;
  const bool results_match =
      faulted.segment_a.results == healthy.segment_a.results &&
      faulted.segment_b.results == healthy.segment_b.results;
  const double steady_p99 =
      static_cast<double>(healthy.segment_b.p99_ns);
  const double recovered_p99 =
      static_cast<double>(faulted.segment_b.p99_ns);
  const bool recovers =
      steady_p99 > 0 && recovered_p99 <= 2.0 * steady_p99;
  std::printf("\nshape checks:\n");
  std::printf("  [%c] crash fires mid-run and exactly one failover + "
              "rebuild brings the spare into service\n",
              failed_over ? 'x' : ' ');
  std::printf("  [%c] zero queries dropped through the device loss "
              "(%llu+%llu completed)\n",
              nothing_dropped ? 'x' : ' ',
              static_cast<unsigned long long>(faulted.segment_a.completed),
              static_cast<unsigned long long>(faulted.segment_b.completed));
  std::printf("  [%c] result counts equal the healthy run in both "
              "segments (replicas serve the lost partitions)\n",
              results_match ? 'x' : ' ');
  std::printf("  [%c] recovered p99 within 2x steady state "
              "(%.3f ms vs %.3f ms, %.2fx)\n",
              recovers ? 'x' : ' ', bench::to_millis(faulted.segment_b.p99_ns),
              bench::to_millis(healthy.segment_b.p99_ns),
              steady_p99 > 0 ? recovered_p99 / steady_p99 : 0.0);
  std::printf("  [%c] failure timeline byte-deterministic "
              "(rerun + thread invariance)\n",
              (reproducible && thread_invariant) ? 'x' : ' ');
  const bool ok = failed_over && nothing_dropped && results_match &&
                  recovers && reproducible && thread_invariant;
  if (!ok) std::printf("\nFAIL: cluster-failover shape checks violated\n");
  return ok ? 0 : 1;
}
