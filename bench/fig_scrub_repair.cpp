// Replica integrity — scrub overhead, read-repair, and anti-entropy.
//
// The cluster's replicas only earn their cost if they stay *identical*;
// latent media rot silently breaks that. This bench drives the three
// integrity mechanisms through one story and prices the first:
//
//  1. calibrate saturation capacity of the scrub-free cluster with a
//     closed loop, then fix the offered load at 0.5x capacity (below the
//     knee, so p99 shifts are scrub contention, not queueing);
//  2. sweep the background scrubber's bandwidth share over
//     {off, 5%, 10%, 20%} on a fault-free cluster and measure foreground
//     p99 — the "foreground_p99" rows feed the scrub-overhead rule of
//     the CI bench guard. The sweep runs CLOSED loop:
//     every latency component is then the service time of some inflated
//     sub-scan, so measured end-to-end overhead provably lands in
//     [0, share/(1-share)] (an open loop near the knee amplifies the
//     inflation through backlog growth and the bound does not apply);
//  3. replay the identical timeline with the "bit-rot" fault profile
//     armed, twice: with the patrol scrubber on (detection off the
//     critical path) and off (the foreground CRC check catches it and
//     read-repair re-fetches from a healthy replica). Both runs must
//     return byte-equal result counts to the rot-free baseline;
//  4. inject *wrong-data* rot (content rotted AND the index CRC rewritten
//     to match): every CRC check passes by construction, the patrol finds
//     nothing, and only an anti-entropy round — comparing logical
//     partition digests across replicas — localizes the divergence,
//     repairs the bad replica, and converges;
//  5. determinism: the rot + scrub timeline replays byte-identically,
//     host --threads never change the timeline at fixed --pes, and --pes
//     (which changes the modeled hardware, hence timing) never changes
//     the returned rows.
//
// All times are virtual; rows land in BENCH_fig_scrub_repair.json.
#include "bench_common.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/pubgraph_cluster.hpp"
#include "host/service.hpp"

using namespace ndpgen;

namespace {

constexpr std::uint64_t kRequests = 96;
constexpr std::uint64_t kLoadSeed = 20210521;

struct RunResult {
  host::ServiceReport service;
  cluster::ClusterReport cluster;
  cluster::ScrubReport scrub;  ///< Summed over all members.
  cluster::AntiEntropyReport entropy;
};

RunResult run_cluster(std::uint64_t scale, std::uint64_t arrival_rate,
                      double scrub_share,
                      const fault::FaultProfile& device_fault,
                      std::uint32_t pes, std::uint32_t threads,
                      std::uint32_t closed_loop_clients = 0,
                      std::uint64_t requests = kRequests) {
  cluster::ClusterBuildConfig build;
  build.devices = 3;
  build.replication = 2;
  build.spares = 1;
  build.scale_divisor = scale;
  build.pes = pes;
  build.threads = threads;
  build.device_fault = device_fault;
  if (scrub_share > 0.0) {
    build.scrub.enabled = true;
    build.scrub.scrub_share = scrub_share;
  }
  const auto cluster = cluster::build_pubgraph_cluster(build);
  auto& coordinator = *cluster->coordinator;
  coordinator.arm_faults(requests);

  host::ServiceConfig service_config;
  service_config.tenants = 4;
  service_config.queue_depth = 16;
  service_config.result_key = workload::paper_result_key;

  host::LoadConfig load_config;
  load_config.tenants = 4;
  load_config.requests = requests;
  load_config.arrival_rate = std::max<std::uint64_t>(1, arrival_rate);
  load_config.closed_loop_clients = closed_loop_clients;
  load_config.key_space = cluster->generator.paper_count();
  load_config.seed = kLoadSeed;

  host::QueryService service(coordinator, service_config);
  host::LoadGenerator load(load_config);

  RunResult result;
  result.service = service.run(load);
  result.entropy = coordinator.run_anti_entropy();
  result.cluster = coordinator.report();
  if (coordinator.scrubbing()) {
    for (std::uint32_t d = 0; d < coordinator.device_count(); ++d) {
      const cluster::ScrubReport& r = coordinator.scrub_report(d);
      result.scrub.blocks_verified += r.blocks_verified;
      result.scrub.bytes_scanned += r.bytes_scanned;
      result.scrub.transient_recovered += r.transient_recovered;
      result.scrub.crc_failures += r.crc_failures;
    }
  }
  return result;
}

bool service_reports_equal(const host::ServiceReport& a,
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
         a.subscan_failures == b.subscan_failures &&
         a.bitrot_blocks_injected == b.bitrot_blocks_injected &&
         a.integrity_failures == b.integrity_failures &&
         a.read_repairs == b.read_repairs && a.repairs == b.repairs &&
         a.bytes_repaired == b.bytes_repaired &&
         a.antientropy_rounds == b.antientropy_rounds;
}

bool scrub_reports_equal(const cluster::ScrubReport& a,
                         const cluster::ScrubReport& b) {
  return a.blocks_verified == b.blocks_verified &&
         a.bytes_scanned == b.bytes_scanned &&
         a.transient_recovered == b.transient_recovered &&
         a.crc_failures == b.crc_failures;
}

bool entropy_reports_equal(const cluster::AntiEntropyReport& a,
                           const cluster::AntiEntropyReport& b) {
  return a.partitions_checked == b.partitions_checked &&
         a.divergent_partitions == b.divergent_partitions &&
         a.divergent_leaves == b.divergent_leaves &&
         a.replicas_repaired == b.replicas_repaired &&
         a.bytes_repaired == b.bytes_repaired && a.converged == b.converged;
}

bool runs_equal(const RunResult& a, const RunResult& b) {
  return service_reports_equal(a.service, b.service) &&
         cluster_reports_equal(a.cluster, b.cluster) &&
         scrub_reports_equal(a.scrub, b.scrub) &&
         entropy_reports_equal(a.entropy, b.entropy);
}

void print_run(const char* label, const RunResult& run) {
  std::printf("%16s | %6llu %6llu %9.3f %9.3f %8llu %5llu %5llu\n", label,
              static_cast<unsigned long long>(run.service.completed),
              static_cast<unsigned long long>(run.service.results),
              bench::to_millis(run.service.p50_ns),
              bench::to_millis(run.service.p99_ns),
              static_cast<unsigned long long>(run.scrub.blocks_verified),
              static_cast<unsigned long long>(run.scrub.crc_failures),
              static_cast<unsigned long long>(run.cluster.repairs));
}

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(2048);
  bench::print_header(
      "Smart-SSD cluster — scrub overhead, read-repair, anti-entropy",
      "replica integrity in the NDP smart-storage deployment (this work)");
  std::printf("topology: 3 members, R=2, 1 spare; papers at 1/%llu scale "
              "(set NDPGEN_SCALE to change)\n\n",
              static_cast<unsigned long long>(scale));

  const fault::FaultProfile fault_free;
  auto rot_parse = fault::FaultProfile::parse("bit-rot");
  const fault::FaultProfile bit_rot = rot_parse.value_or_raise();
  auto wrong_parse =
      fault::FaultProfile::parse("bit-rot,device_bitrot_wrong_data=1");
  const fault::FaultProfile wrong_data = wrong_parse.value_or_raise();

  // --- 1. closed-loop capacity of the scrub-free cluster, then 0.5x.
  const RunResult saturated =
      run_cluster(scale, 1000, 0.0, fault_free, 1, 0,
                  /*closed_loop_clients=*/32, /*requests=*/64);
  const double capacity = saturated.service.throughput_rps;
  const auto arrival_rate =
      static_cast<std::uint64_t>(std::llround(capacity * 0.5));
  std::printf("closed-loop capacity: %.0f req/s; open-loop runs at "
              "0.5x = %llu req/s\n\n",
              capacity, static_cast<unsigned long long>(arrival_rate));

  // --- 2. scrub-share sweep, closed loop (4 clients, one per tenant) so
  // the share/(1-share) overhead bound is a theorem, not a hope.
  const double kShares[] = {0.0, 0.05, 0.10, 0.20};
  RunResult sweep[4];
  for (int i = 0; i < 4; ++i) {
    sweep[i] = run_cluster(scale, arrival_rate, kShares[i], fault_free, 1, 0,
                           /*closed_loop_clients=*/4);
  }
  const RunResult& baseline = sweep[0];

  // --- 3.+4. rot timelines: patrol detection, read-repair, wrong data.
  // The row-count reference is an OPEN-loop rot-free run — a closed loop
  // draws a different key sequence, so the sweep rows are not comparable.
  const RunResult rot_free =
      run_cluster(scale, arrival_rate, 0.0, fault_free, 1, 0);
  const RunResult rot_scrubbed =
      run_cluster(scale, arrival_rate, 0.10, bit_rot, 1, 0);
  const RunResult rot_foreground =
      run_cluster(scale, arrival_rate, 0.0, bit_rot, 1, 0);
  const RunResult rot_wrong_data =
      run_cluster(scale, arrival_rate, 0.10, wrong_data, 1, 0);

  std::printf("%16s | %6s %6s %9s %9s %8s %5s %5s\n", "run", "done", "rows",
              "p50 [ms]", "p99 [ms]", "scrubbed", "crc", "rep");
  print_run("scrub off", sweep[0]);
  print_run("scrub 5%", sweep[1]);
  print_run("scrub 10%", sweep[2]);
  print_run("scrub 20%", sweep[3]);
  print_run("rot-free ref", rot_free);
  print_run("rot+scrub", rot_scrubbed);
  print_run("rot+read-repair", rot_foreground);
  print_run("rot+wrong-data", rot_wrong_data);

  std::printf("\nwrong-data anti-entropy: %llu/%llu partitions divergent "
              "(%llu leaf buckets), %llu replica(s) repaired "
              "(%llu bytes), %s\n",
              static_cast<unsigned long long>(
                  rot_wrong_data.entropy.divergent_partitions),
              static_cast<unsigned long long>(
                  rot_wrong_data.entropy.partitions_checked),
              static_cast<unsigned long long>(
                  rot_wrong_data.entropy.divergent_leaves),
              static_cast<unsigned long long>(
                  rot_wrong_data.entropy.replicas_repaired),
              static_cast<unsigned long long>(
                  rot_wrong_data.entropy.bytes_repaired),
              rot_wrong_data.entropy.converged ? "converged" : "DIVERGED");

  // --- 5. determinism: byte-equal replay; at fixed pes=2 the host thread
  // count never changes the timeline; pes itself (different modeled
  // hardware, different timing) never changes the returned rows.
  const RunResult rerun =
      run_cluster(scale, arrival_rate, 0.10, bit_rot, 1, 0);
  const RunResult sharded =
      run_cluster(scale, arrival_rate, 0.10, bit_rot, 2, 1);
  const RunResult threaded =
      run_cluster(scale, arrival_rate, 0.10, bit_rot, 2, 4);
  const bool reproducible = runs_equal(rot_scrubbed, rerun);
  const bool thread_invariant = runs_equal(sharded, threaded);
  const bool pes_rows_invariant =
      sharded.service.results == rot_scrubbed.service.results &&
      sharded.service.completed == rot_scrubbed.service.completed &&
      entropy_reports_equal(sharded.entropy, rot_scrubbed.entropy);
  std::printf("determinism: rerun %s, threads 1/4 @ pes=2 %s, "
              "pes 1->2 rows %s\n",
              reproducible ? "identical" : "DIVERGED",
              thread_invariant ? "identical" : "DIVERGED",
              pes_rows_invariant ? "identical" : "DIVERGED");

  bench::JsonResult json("fig_scrub_repair");
  json.add("capacity", "closed", capacity, "rps");
  const char* kShareLabels[] = {"off", "0.05", "0.10", "0.20"};
  for (int i = 0; i < 4; ++i) {
    json.add("foreground_p99", kShareLabels[i],
             bench::to_millis(sweep[i].service.p99_ns), "ms");
    json.add("foreground_tput", kShareLabels[i],
             sweep[i].service.throughput_rps, "rps");
    json.add("scrub_blocks", kShareLabels[i],
             static_cast<double>(sweep[i].scrub.blocks_verified), "blocks");
  }
  json.add("repair", "bitrot_blocks",
           static_cast<double>(rot_scrubbed.cluster.bitrot_blocks_injected));
  json.add("repair", "scrub_crc_failures",
           static_cast<double>(rot_scrubbed.scrub.crc_failures));
  json.add("repair", "read_repairs",
           static_cast<double>(rot_foreground.cluster.read_repairs));
  json.add("repair", "wrong_data_divergent",
           static_cast<double>(rot_wrong_data.entropy.divergent_partitions));
  json.add("repair", "wrong_data_leaves",
           static_cast<double>(rot_wrong_data.entropy.divergent_leaves));
  json.write();

  // Shape checks — the ISSUE acceptance criteria for replica integrity.
  bool overhead_bounded = true;
  bool patrol_progresses = true;
  const double base_p99 = static_cast<double>(baseline.service.p99_ns);
  for (int i = 1; i < 4; ++i) {
    const double p99 = static_cast<double>(sweep[i].service.p99_ns);
    const double bound = kShares[i] / (1.0 - kShares[i]);
    // End-to-end overhead must land in [0, share/(1-share)]: the factor
    // only inflates the device sub-scan leg of the critical path.
    overhead_bounded = overhead_bounded && p99 >= base_p99 &&
                       p99 <= base_p99 * (1.0 + bound) + 1.0;
    patrol_progresses = patrol_progresses &&
                        sweep[i].scrub.blocks_verified > 0 &&
                        sweep[i].scrub.crc_failures == 0;
  }
  const bool scrub_detects =
      rot_scrubbed.cluster.bitrot_blocks_injected > 0 &&
      rot_scrubbed.scrub.crc_failures > 0 &&
      rot_scrubbed.cluster.repairs >= 1;
  const bool read_repairs =
      rot_foreground.cluster.bitrot_blocks_injected > 0 &&
      rot_foreground.cluster.read_repairs >= 1 &&
      rot_foreground.cluster.repairs >= 1;
  const bool results_equal =
      rot_scrubbed.service.completed == kRequests &&
      rot_foreground.service.completed == kRequests &&
      rot_scrubbed.service.results == rot_free.service.results &&
      rot_foreground.service.results == rot_free.service.results &&
      rot_wrong_data.service.results == rot_free.service.results &&
      rot_scrubbed.service.dropped == 0 &&
      rot_foreground.service.dropped == 0;
  const bool antientropy_converges =
      rot_wrong_data.scrub.crc_failures == 0 &&
      rot_wrong_data.entropy.divergent_partitions > 0 &&
      rot_wrong_data.entropy.divergent_leaves >=
          rot_wrong_data.entropy.divergent_partitions &&
      rot_wrong_data.entropy.replicas_repaired >= 1 &&
      rot_wrong_data.entropy.converged && baseline.entropy.converged &&
      baseline.entropy.divergent_partitions == 0;

  std::printf("\nshape checks:\n");
  std::printf("  [%c] foreground p99 overhead within the "
              "share/(1-share) model bound at every swept share\n",
              overhead_bounded ? 'x' : ' ');
  std::printf("  [%c] patrol read makes progress at every share and "
              "raises no false CRC alarms on clean media\n",
              patrol_progresses ? 'x' : ' ');
  std::printf("  [%c] background scrub detects injected rot off the "
              "critical path and triggers replica-sourced repair\n",
              scrub_detects ? 'x' : ' ');
  std::printf("  [%c] without scrub, the foreground CRC check triggers "
              "read-repair (%llu read-repair(s))\n",
              read_repairs ? 'x' : ' ',
              static_cast<unsigned long long>(
                  rot_foreground.cluster.read_repairs));
  std::printf("  [%c] every rot run returns byte-equal result counts to "
              "the rot-free baseline, zero drops\n",
              results_equal ? 'x' : ' ');
  std::printf("  [%c] wrong-data rot passes every CRC yet anti-entropy "
              "localizes, repairs and converges\n",
              antientropy_converges ? 'x' : ' ');
  std::printf("  [%c] rot + scrub timeline byte-deterministic "
              "(rerun, thread invariance, pes row invariance)\n",
              (reproducible && thread_invariant && pes_rows_invariant)
                  ? 'x'
                  : ' ');
  const bool ok = overhead_bounded && patrol_progresses && scrub_detects &&
                  read_repairs && results_equal && antientropy_converges &&
                  reproducible && thread_invariant && pes_rows_invariant;
  if (!ok) std::printf("\nFAIL: scrub-repair shape checks violated\n");
  return ok ? 0 : 1;
}
