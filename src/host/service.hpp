// Host query service: multi-tenant NVMe queue-pair frontend for the
// hybrid NDP executor.
//
// The service is a discrete-event simulation of the host submission path
// that sits between concurrent clients and the single device command
// stream (OpenCXD-style; the existing executor is the device):
//
//   clients -> per-tenant QueuePair (bounded SQ, kBusy admission)
//           -> WRR arbiter -> head-of-line coalescing (<= batch_limit
//              FIFO entries, adjacent ranges merge) -> ONE
//              HybridExecutor::multi_range_scan offload -> CQ posting.
//
// Invariants (DESIGN.md §9):
//  * one offload in flight — the device serves one NDP command at a time,
//    so host concurrency shows up as queueing delay, not device magic;
//  * per-tenant FIFO — batching takes a prefix of one tenant's SQ, never
//    reorders within a tenant, never mixes tenants in one offload;
//  * admission before the doorbell — a full SQ rejects host-side with a
//    typed kBusy and the NVMe link is not touched;
//  * every host decision is a function of (event time, submission seq),
//    so a fixed seed replays byte-identically for any --pes/--threads.
//
// Timing: doorbells reserve the shared NvmeLink (zero-payload command,
// serialized with the executor's result transfers), the offload advances
// the platform DES by the executor's elapsed time, and CQ posting charges
// one more nvme_command_latency. Executor errors (e.g. the typed kStorage
// refusal while the store is mid-recovery) propagate out of run() —
// never swallowed.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "host/arbiter.hpp"
#include "host/load_generator.hpp"
#include "host/offload_target.hpp"
#include "host/queue_pair.hpp"
#include "ndp/executor.hpp"
#include "platform/cosmos.hpp"

namespace ndpgen::host {

struct ServiceConfig {
  std::uint32_t tenants = 4;
  /// Per-tenant submission queue bound (admission control).
  std::uint32_t queue_depth = 16;
  /// WRR weights, one per tenant; empty = equal weights.
  std::vector<std::uint32_t> weights;
  /// Max head-of-line requests coalesced into one offload; 1 = batching
  /// off.
  std::uint32_t batch_limit = 8;
  /// Client resubmissions after a kBusy rejection before the request is
  /// dropped.
  std::uint32_t max_retries = 8;
  /// First retry backoff; doubles per failed attempt.
  platform::SimTime retry_backoff = 50 * platform::kNsPerUs;
  /// Filter conjunction applied by every offload.
  std::vector<ndp::FilterPredicate> predicates;
  /// Maps output-layout records to keys for per-request result
  /// accounting. Required.
  kv::KeyExtractor result_key = nullptr;
};

struct TenantReport {
  std::uint64_t submitted = 0;      ///< Distinct requests first submitted.
  std::uint64_t retries = 0;        ///< Resubmissions after kBusy.
  std::uint64_t rejected_busy = 0;  ///< kBusy rejections (incl. retries).
  std::uint64_t dropped = 0;        ///< Requests that exhausted retries.
  std::uint64_t completed = 0;
  std::uint64_t results = 0;
  std::size_t sq_high_water = 0;
  /// Latency percentiles from the obs histogram (histogram_percentile).
  platform::SimTime p50_ns = 0;
  platform::SimTime p95_ns = 0;
  platform::SimTime p99_ns = 0;
  double throughput_rps = 0.0;  ///< completed / makespan.
  /// Summed per-request phase attribution (queueing/doorbell/transfer/
  /// flash/pe/merge) over this tenant's completions.
  obs::PhaseBreakdown phases;
};

struct ServiceReport {
  std::vector<TenantReport> tenants;
  std::uint64_t submitted = 0;
  std::uint64_t retries = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t dropped = 0;
  std::uint64_t completed = 0;
  std::uint64_t results = 0;
  std::uint64_t batches = 0;    ///< Offloads dispatched.
  std::uint64_t coalesced = 0;  ///< Requests that rode an earlier head's
                                ///< offload (sum of batch_size - 1).
  std::uint64_t max_batch = 0;
  platform::SimTime makespan_ns = 0;     ///< First arrival -> last CQ post.
  platform::SimTime device_busy_ns = 0;  ///< Sum of offload service times.
  platform::SimTime p50_ns = 0;
  platform::SimTime p95_ns = 0;
  platform::SimTime p99_ns = 0;
  double throughput_rps = 0.0;
  /// Summed per-request phase attribution over every completion. Each
  /// request's phases sum to its latency, so phases.total() equals the
  /// summed completion latency (test-enforced).
  obs::PhaseBreakdown phases;

  [[nodiscard]] double utilization() const noexcept {
    return makespan_ns == 0
               ? 0.0
               : static_cast<double>(device_busy_ns) /
                     static_cast<double>(makespan_ns);
  }
};

class QueryService {
 public:
  /// Serves offloads from an arbitrary device-side target (single device
  /// or a cluster frontend).
  QueryService(OffloadTarget& target, ServiceConfig config);

  /// Drives the load to exhaustion (all issued requests completed or
  /// dropped) and returns the report. Throws the executor's typed errors
  /// (kStorage mid-recovery) and config errors (kInvalidArg); admission
  /// kBusy is handled by retry/backoff and reported, not thrown.
  ServiceReport run(LoadGenerator& load);

  /// Test access to a tenant's queue pair.
  [[nodiscard]] QueuePair& queue_pair(std::uint32_t tenant);

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  enum class EventKind : std::uint8_t { kArrival, kRetry, kCompletion };

  struct Event {
    platform::SimTime at = 0;
    std::uint64_t seq = 0;  ///< Tie-break: equal times fire in push order.
    EventKind kind = EventKind::kArrival;
    Request request;  ///< Unused for kCompletion.
  };
  struct EventAfter {
    bool operator()(const Event& a, const Event& b) const noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// The in-flight offload (at most one; the device serves serially).
  struct Batch {
    std::uint32_t tenant = 0;
    std::vector<Request> requests;
    std::vector<std::uint64_t> results_per_request;
    platform::SimTime dispatched = 0;
    platform::SimTime service_ns = 0;    ///< Executor elapsed (device time).
    obs::PhaseBreakdown device_phases;   ///< Executor phase attribution.
  };

  void push_event(platform::SimTime at, EventKind kind,
                  const Request& request);
  void handle_submit(Request request, LoadGenerator& load);
  void try_dispatch();
  void complete_batch(LoadGenerator& load);
  void seed_closed_loop(LoadGenerator& load);
  void pull_open_arrival(LoadGenerator& load);
  void resolve_metric_handles();

  OffloadTarget* target_;  ///< Never null; the device side being driven.
  ServiceConfig config_;
  WrrArbiter arbiter_;
  std::vector<QueuePair> queues_;

  std::priority_queue<Event, std::vector<Event>, EventAfter> events_;
  std::uint64_t event_seq_ = 0;
  platform::SimTime now_ = 0;
  std::optional<Batch> in_flight_;

  // Run-scoped accounting (reset by run()).
  ServiceReport report_;
  platform::SimTime first_arrival_ = 0;
  platform::SimTime last_completion_ = 0;
  bool saw_arrival_ = false;

  // Pre-resolved metric handles (per tenant + global).
  struct TenantMetrics {
    obs::CounterHandle submitted, retries, rejected, dropped, completed,
        results;
    obs::GaugeHandle sq_depth;
    obs::HistogramHandle latency;
  };
  std::vector<TenantMetrics> tenant_metrics_;
  obs::CounterHandle m_submitted_, m_retries_, m_rejected_, m_dropped_,
      m_completed_, m_results_, m_batches_, m_coalesced_;
  obs::HistogramHandle m_latency_, m_service_, m_batch_size_, m_queue_wait_;
};

}  // namespace ndpgen::host
