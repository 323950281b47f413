// Host query service — saturation throughput, tail latency vs offered
// load, and the batching ablation.
//
// The paper's framework targets smart-storage deployments where many host
// clients share one NDP device; this bench characterizes the host frontend
// (bounded NVMe queue pairs + WRR arbitration + coalescing) the way a
// storage-service evaluation would:
//
//  1. calibrate saturation capacity with a closed loop (clients keep the
//     SQs full; throughput = device capacity, no drops);
//  2. sweep an open-loop arrival rate across fractions of that capacity —
//     throughput tracks offered load below the knee and plateaus above
//     it, while p99 latency grows superlinearly past the knee;
//  3. repeat with batching off (batch limit 1): coalescing adjacent
//     ranges amortizes the per-offload command/firmware overhead, so
//     saturation throughput drops without it;
//  4. replay one sweep point at --pes 1..4: every report field must be
//     byte-identical (the multi-PE determinism contract, now end-to-end
//     through the host service).
//
// All times are virtual, so every row is deterministic for a fixed seed
// and NDPGEN_SCALE; BENCH rows feed the CI bench guard (p99 rows get the
// tighter p99 rule).
#include "bench_common.hpp"

#include <array>
#include <cmath>

#include "core/testbed.hpp"
#include "host/service.hpp"

using namespace ndpgen;

namespace {

struct PointConfig {
  std::uint64_t arrival_rate = 0;  ///< 0 = closed loop.
  std::uint32_t closed_loop_clients = 0;
  std::uint32_t batch_limit = 8;
  std::uint32_t pes = 1;
  std::uint32_t threads = 0;  ///< Host threads driving the shards.
  std::uint64_t requests = 192;
};

host::ServiceReport run_point(std::uint64_t scale,
                              const fault::FaultProfile& fault_profile,
                              const PointConfig& point) {
  // Fresh testbed per point so DES/flash state never leaks between load
  // levels.
  core::TestbedConfig config;
  config.scale_divisor = scale;
  config.cosmos.fault = fault_profile;
  config.executor.mode = ndp::ExecMode::kHardware;
  config.executor.num_pes = point.pes;
  config.executor.pe_threads = point.threads;
  core::Testbed testbed(std::move(config));

  host::ServiceConfig service_config;
  service_config.tenants = 4;
  service_config.queue_depth = 16;
  service_config.batch_limit = point.batch_limit;
  service_config.result_key = testbed.dataset().result_key;

  host::LoadConfig load_config;
  load_config.tenants = 4;
  load_config.requests = point.requests;
  load_config.arrival_rate = std::max<std::uint64_t>(1, point.arrival_rate);
  load_config.closed_loop_clients = point.closed_loop_clients;
  load_config.key_space = testbed.generator().paper_count();

  host::SingleDeviceTarget device(testbed.executor(), testbed.platform());
  host::QueryService service(device, service_config);
  host::LoadGenerator load(load_config);
  return service.run(load);
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

}  // namespace

int main() {
  const std::uint64_t scale = bench::scale_divisor(2048);
  bench::print_header(
      "Host query service — saturation, tail latency, batching ablation",
      "multi-tenant frontend for the generated NDP device (this work)");
  std::printf("dataset: papers at 1/%llu scale, 4 tenants, qd 16 "
              "(set NDPGEN_SCALE to change)\n\n",
              static_cast<unsigned long long>(scale));

  const fault::FaultProfile fault_profile = bench::fault_profile_from_env();
  if (fault_profile.any_enabled()) {
    std::fprintf(stderr, "%s\n", fault_profile.summary().c_str());
  }
  bench::JsonResult json("fig_host_service");

  // --- 1. closed-loop saturation: device capacity with/without batching.
  PointConfig closed;
  closed.closed_loop_clients = 32;
  closed.requests = 512;
  const auto saturated = run_point(scale, fault_profile, closed);
  PointConfig closed_nobatch = closed;
  closed_nobatch.batch_limit = 1;
  const auto saturated_nobatch =
      run_point(scale, fault_profile, closed_nobatch);
  const double capacity = saturated.throughput_rps;
  const double capacity_nobatch = saturated_nobatch.throughput_rps;
  const double batching_gain =
      capacity_nobatch > 0 ? capacity / capacity_nobatch : 0.0;
  std::printf("closed-loop capacity: %.0f req/s batched (batch<=8), "
              "%.0f req/s unbatched — coalescing gain %.2fx\n\n",
              capacity, capacity_nobatch, batching_gain);
  json.add("capacity_batch", "closed", capacity, "rps");
  json.add("capacity_nobatch", "closed", capacity_nobatch, "rps");
  json.add("batching_speedup", "saturation", batching_gain, "x");
  // Where did the saturated latency go? Phase attribution summed over
  // every completion (ns rows: lower-better in the bench guard).
  std::printf("saturated phase attribution:");
  for (std::size_t p = 0; p < obs::kRequestPhaseCount; ++p) {
    const auto phase = static_cast<obs::RequestPhase>(p);
    std::printf(" %s %.3f ms", std::string(obs::phase_name(phase)).c_str(),
                bench::to_millis(saturated.phases[phase]));
    json.add("phase_ns_closed", std::string(obs::phase_name(phase)),
             static_cast<double>(saturated.phases[phase]), "ns");
  }
  std::printf("\n\n");

  // --- 2.+3. open-loop load sweep at fractions of batched capacity.
  struct Fraction {
    const char* label;
    double value;
  };
  const std::array<Fraction, 6> fractions = {{{"0.125x", 0.125},
                                              {"0.25x", 0.25},
                                              {"0.5x", 0.5},
                                              {"1x", 1.0},
                                              {"1.5x", 1.5},
                                              {"2x", 2.0}}};
  std::printf("open-loop sweep (offered load as fraction of capacity):\n");
  std::printf("%8s %12s | %11s %9s %9s %6s | %11s %9s %6s\n", "load",
              "rate [r/s]", "tput(b) r/s", "p50 [ms]", "p99 [ms]", "drop",
              "tput(1) r/s", "p99 [ms]", "drop");
  std::array<host::ServiceReport, fractions.size()> swept;
  std::array<host::ServiceReport, fractions.size()> swept_nobatch;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    PointConfig point;
    point.arrival_rate = static_cast<std::uint64_t>(
        std::llround(capacity * fractions[i].value));
    swept[i] = run_point(scale, fault_profile, point);
    PointConfig nobatch = point;
    nobatch.batch_limit = 1;
    swept_nobatch[i] = run_point(scale, fault_profile, nobatch);
    const auto& b = swept[i];
    const auto& nb = swept_nobatch[i];
    std::printf("%8s %12llu | %11.0f %9.3f %9.3f %6llu | %11.0f %9.3f "
                "%6llu\n",
                fractions[i].label,
                static_cast<unsigned long long>(point.arrival_rate),
                b.throughput_rps, bench::to_millis(b.p50_ns),
                bench::to_millis(b.p99_ns),
                static_cast<unsigned long long>(b.dropped),
                nb.throughput_rps, bench::to_millis(nb.p99_ns),
                static_cast<unsigned long long>(nb.dropped));
    json.add("throughput_batch", fractions[i].label, b.throughput_rps,
             "rps");
    json.add("p50_batch", fractions[i].label, bench::to_millis(b.p50_ns),
             "ms");
    json.add("p99_batch", fractions[i].label, bench::to_millis(b.p99_ns),
             "ms");
    json.add("dropped_batch", fractions[i].label,
             static_cast<double>(b.dropped), "reqs");
    json.add("throughput_nobatch", fractions[i].label, nb.throughput_rps,
             "rps");
    json.add("p99_nobatch", fractions[i].label, bench::to_millis(nb.p99_ns),
             "ms");
  }

  // --- 4. multi-PE determinism: one sub-knee point replayed at 1..4 PEs.
  // The contract (mirroring the executor's): each (seed, pes) combo is
  // byte-reproducible run-to-run and thread-count-invariant; the request
  // outcome set (completions, per-request results, admissions) is
  // invariant across PEs, while device timing may legitimately shift with
  // the PE-phase critical path (that is the multi-PE speedup, not noise).
  std::printf("\nmulti-PE replay (0.5x load):\n");
  bool pes_deterministic = true;
  host::ServiceReport pes_reports[4];
  for (std::uint32_t pes = 1; pes <= 4; ++pes) {
    PointConfig point;
    point.arrival_rate =
        static_cast<std::uint64_t>(std::llround(capacity * 0.5));
    point.pes = pes;
    pes_reports[pes - 1] = run_point(scale, fault_profile, point);
    const auto& report = pes_reports[pes - 1];
    // Re-run the identical point: the full report must be byte-equal.
    const auto rerun = run_point(scale, fault_profile, point);
    const bool reproducible = reports_equal(report, rerun);
    // Thread count never touches virtual time or results.
    PointConfig threaded = point;
    threaded.threads = 4;
    const bool thread_invariant =
        reports_equal(report, run_point(scale, fault_profile, threaded));
    // Outcomes (not timing) must match the 1-PE run.
    const auto& base = pes_reports[0];
    const bool outcomes_invariant =
        report.submitted == base.submitted &&
        report.completed == base.completed &&
        report.results == base.results && report.dropped == base.dropped;
    pes_deterministic = pes_deterministic && reproducible &&
                        thread_invariant && outcomes_invariant;
    std::printf("  %u PE%s: %.0f r/s, p99 %.3f ms — rerun %s, threads 0/4 "
                "%s, outcomes %s\n",
                pes, pes == 1 ? " " : "s", report.throughput_rps,
                bench::to_millis(report.p99_ns),
                reproducible ? "identical" : "DIVERGED",
                thread_invariant ? "identical" : "DIVERGED",
                outcomes_invariant ? "invariant" : "DIVERGED");
    json.add("pes_throughput", pes, report.throughput_rps, "rps");
  }

  json.write();

  // Shape checks: the knee behaviour the queueing model must reproduce.
  const auto& sub = swept[0];     // 0.125x — far below the knee.
  const auto& half = swept[2];    // 0.5x
  const auto& over = swept[5];    // 2x — past the knee.
  const auto& past = swept[4];    // 1.5x
  const bool rises = half.throughput_rps > 1.5 * sub.throughput_rps;
  // Past the knee the service is pinned at device capacity: both
  // overloaded points sit within 10% of the calibrated ceiling and of
  // each other instead of tracking the offered load.
  const bool plateaus = over.throughput_rps < 1.10 * capacity &&
                        past.throughput_rps < 1.10 * capacity &&
                        over.throughput_rps < 1.10 * past.throughput_rps;
  const bool tail_blows_up = over.p99_ns >= 3 * sub.p99_ns;
  const bool batching_wins = batching_gain >= 1.2;
  std::printf("\nshape checks:\n");
  std::printf("  [%c] throughput tracks offered load below the knee "
              "(%.0f r/s at 0.5x vs %.0f at 0.125x)\n",
              rises ? 'x' : ' ', half.throughput_rps, sub.throughput_rps);
  std::printf("  [%c] throughput plateaus past the knee "
              "(%.0f r/s at 1.5x, %.0f at 2x, capacity %.0f)\n",
              plateaus ? 'x' : ' ', past.throughput_rps,
              over.throughput_rps, capacity);
  std::printf("  [%c] p99 grows superlinearly past the knee "
              "(%.3f ms at 2x vs %.3f ms at 0.125x)\n",
              tail_blows_up ? 'x' : ' ', bench::to_millis(over.p99_ns),
              bench::to_millis(sub.p99_ns));
  std::printf("  [%c] batching lifts saturation throughput (%.2fx)\n",
              batching_wins ? 'x' : ' ', batching_gain);
  std::printf("  [%c] sweep deterministic across --pes 1..4 (byte-equal "
              "reruns, thread-invariant, outcome-invariant)\n",
              pes_deterministic ? 'x' : ' ');
  const bool ok = rises && plateaus && tail_blows_up && batching_wins &&
                  pes_deterministic;
  if (!ok) std::printf("\nFAIL: host-service shape checks violated\n");
  return ok ? 0 : 1;
}
