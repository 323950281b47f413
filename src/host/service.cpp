#include "host/service.hpp"

#include <algorithm>
#include <string>

#include "obs/obs.hpp"

namespace ndpgen::host {

namespace {

std::vector<std::uint32_t> normalized_weights(const ServiceConfig& config) {
  NDPGEN_CHECK_ARG(config.tenants >= 1, "service needs at least one tenant");
  if (config.weights.empty()) {
    return std::vector<std::uint32_t>(config.tenants, 1);
  }
  NDPGEN_CHECK_ARG(config.weights.size() == config.tenants,
                   "need exactly one WRR weight per tenant");
  return config.weights;
}

}  // namespace

QueryService::QueryService(OffloadTarget& target, ServiceConfig config)
    : target_(&target),
      config_(std::move(config)),
      arbiter_(normalized_weights(config_)) {
  NDPGEN_CHECK_ARG(config_.batch_limit >= 1,
                   "batch limit must be at least 1 (1 = batching off)");
  NDPGEN_CHECK_ARG(static_cast<bool>(config_.result_key),
                   "service requires result_key for per-request result "
                   "accounting");
  queues_.reserve(config_.tenants);
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    queues_.emplace_back(t, config_.queue_depth);
  }
  resolve_metric_handles();
}

void QueryService::resolve_metric_handles() {
  // Handles are resolved once here so event handling never allocates and
  // metric registration order is a function of the config alone.
  obs::MetricsRegistry& m = target_->observability().metrics;
  m_submitted_ = m.counter("host.submitted");
  m_retries_ = m.counter("host.retries");
  m_rejected_ = m.counter("host.rejected_busy");
  m_dropped_ = m.counter("host.dropped");
  m_completed_ = m.counter("host.completed");
  m_results_ = m.counter("host.results");
  m_batches_ = m.counter("host.batches");
  m_coalesced_ = m.counter("host.coalesced");
  m_latency_ = m.histogram("host.latency_ns");
  m_service_ = m.histogram("host.service_ns");
  m_batch_size_ = m.histogram("host.batch_size");
  m_queue_wait_ = m.histogram("host.queue_wait_ns");
  tenant_metrics_.reserve(config_.tenants);
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    const std::string prefix = "host.tenant" + std::to_string(t) + ".";
    tenant_metrics_.push_back(TenantMetrics{
        m.counter(prefix + "submitted"), m.counter(prefix + "retries"),
        m.counter(prefix + "rejected_busy"), m.counter(prefix + "dropped"),
        m.counter(prefix + "completed"), m.counter(prefix + "results"),
        m.gauge(prefix + "sq_depth"), m.histogram(prefix + "latency_ns")});
  }
}

QueuePair& QueryService::queue_pair(std::uint32_t tenant) {
  NDPGEN_CHECK_ARG(tenant < queues_.size(), "tenant out of range");
  return queues_[tenant];
}

void QueryService::push_event(platform::SimTime at, EventKind kind,
                              const Request& request) {
  events_.push(Event{at, ++event_seq_, kind, request});
}

void QueryService::pull_open_arrival(LoadGenerator& load) {
  if (auto request = load.next_arrival()) {
    push_event(request->arrival, EventKind::kArrival, *request);
  }
}

void QueryService::seed_closed_loop(LoadGenerator& load) {
  // Clients start staggered by 1 us so the initial burst still has a
  // defined submission order under the (at, seq) event ordering.
  for (std::uint32_t c = 0; c < load.config().closed_loop_clients; ++c) {
    if (auto request = load.next_for_client(c, c * platform::kNsPerUs)) {
      push_event(request->arrival, EventKind::kArrival, *request);
    }
  }
}

void QueryService::handle_submit(Request request, LoadGenerator& load) {
  obs::Observability& obs = target_->observability();
  obs::MetricsRegistry& m = obs.metrics;
  TenantMetrics& tm = tenant_metrics_[request.tenant];
  TenantReport& tr = report_.tenants[request.tenant];
  if (request.attempts == 0) {
    ++report_.submitted;
    ++tr.submitted;
    m.add(m_submitted_);
    m.add(tm.submitted);
  } else {
    ++report_.retries;
    ++tr.retries;
    m.add(m_retries_);
    m.add(tm.retries);
  }
  ++request.attempts;

  QueuePair& qp = queues_[request.tenant];
  Request attempt = request;
  if (!qp.sq_full()) {
    // Doorbell: a zero-payload command on the shared host link, serialized
    // against every other submission and result transfer. The SQ entry is
    // live (dispatchable) once the grant drains. The grant's span of the
    // link is this request's host-side doorbell phase.
    const platform::LinkGrant grant = target_->doorbell(now_);
    attempt.admitted = grant.done;
    attempt.doorbell_ns = grant.done - now_;
  }
  auto admitted = qp.submit(attempt);
  if (!admitted.ok()) {
    // Typed kBusy from admission control: account it, then either back
    // off and resubmit or drop after the retry budget.
    ++report_.rejected_busy;
    ++tr.rejected_busy;
    m.add(m_rejected_);
    m.add(tm.rejected);
    if (obs.tracing()) {
      obs.trace->instant(
          obs.trace->track("host.tenant" + std::to_string(request.tenant)),
          "busy", "host", now_,
          "{\"request\":" + std::to_string(request.id) +
              ",\"attempt\":" + std::to_string(request.attempts) + "}");
    }
    if (request.attempts <= config_.max_retries) {
      // Exponential client backoff: 1st retry after retry_backoff, then
      // doubling — the knob that turns sustained overload into drops
      // instead of an unbounded retry storm. Jitter is seeded per request
      // (id + tenant + attempt), never from a shared stream, so the retry
      // timeline is a pure function of the request and byte-identical
      // under --threads variation.
      const platform::SimTime backoff = config_.retry_backoff
                                        << (request.attempts - 1);
      const platform::SimTime jitter =
          QueuePair::retry_jitter(request, backoff);
      push_event(now_ + backoff + jitter, EventKind::kRetry, request);
    } else {
      ++report_.dropped;
      ++tr.dropped;
      m.add(m_dropped_);
      m.add(tm.dropped);
      if (!load.open_loop()) {
        // The closed-loop client gives up on this request and moves on.
        if (auto next = load.next_for_client(
                request.client, now_ + load.config().think_time)) {
          push_event(next->arrival, EventKind::kArrival, *next);
        }
      }
    }
    return;
  }
  m.raise(tm.sq_depth, qp.sq_depth());
}

void QueryService::try_dispatch() {
  if (in_flight_.has_value()) return;  // One offload in flight at a time.
  std::vector<bool> pending(queues_.size());
  bool any = false;
  for (std::size_t t = 0; t < queues_.size(); ++t) {
    pending[t] = !queues_[t].sq_empty();
    any = any || pending[t];
  }
  if (!any) return;
  const auto grant = arbiter_.pick(pending);
  if (!grant.has_value()) return;

  QueuePair& qp = queues_[*grant];
  Batch batch;
  batch.tenant = *grant;
  platform::SimTime ready = now_;
  while (batch.requests.size() < config_.batch_limit) {
    auto next = qp.pop();
    if (!next.has_value()) break;
    ready = std::max(ready, next->admitted);
    batch.requests.push_back(*next);
  }

  if (ready > target_->device_now()) target_->advance_device_to(ready);
  const platform::SimTime start = target_->device_now();

  std::vector<ndp::KeyRange> ranges;
  ranges.reserve(batch.requests.size());
  for (const Request& request : batch.requests) {
    ranges.push_back(ndp::KeyRange{request.lo, request.hi});
  }
  std::vector<std::vector<std::uint8_t>> records;
  // One coalesced offload; executor errors (typed kStorage while the
  // store recovers) unwind through run() to the caller. The request
  // context is minted from the batch head's id (head-of-line requests are
  // issued in generator order, so the id — and every span tagged with it —
  // is invariant across pes/threads) and cleared before control returns
  // to the event loop.
  obs::Observability& obs = target_->observability();
  obs.request_ctx = obs::RequestContext::mint(batch.requests.front().id);
  ndp::ScanStats stats;
  try {
    stats = target_->multi_range_scan(ranges, config_.predicates, &records);
  } catch (...) {
    obs.request_ctx = obs::RequestContext{};
    throw;
  }
  obs.request_ctx = obs::RequestContext{};

  batch.dispatched = start;
  batch.service_ns = stats.elapsed;
  batch.device_phases = stats.phases;
  batch.results_per_request.assign(batch.requests.size(), 0);
  for (const auto& record : records) {
    const kv::Key key = config_.result_key(record);
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      const Request& request = batch.requests[i];
      if (!(key < request.lo) && !(request.hi < key)) {
        ++batch.results_per_request[i];
      }
    }
  }

  obs::MetricsRegistry& m = obs.metrics;
  ++report_.batches;
  report_.coalesced += batch.requests.size() - 1;
  report_.max_batch = std::max<std::uint64_t>(report_.max_batch,
                                              batch.requests.size());
  report_.device_busy_ns += stats.elapsed;
  m.add(m_batches_);
  m.add(m_coalesced_, batch.requests.size() - 1);
  m.observe(m_batch_size_, batch.requests.size());
  m.observe(m_service_, stats.elapsed);
  for (const Request& request : batch.requests) {
    m.observe(m_queue_wait_, start - std::min(start, request.admitted));
  }
  if (obs.tracing()) {
    const obs::TrackId device = obs.trace->track("host.device");
    obs.trace->complete(
        device, "offload", "host", start, stats.elapsed,
        "{\"tenant\":" + std::to_string(batch.tenant) +
            ",\"requests\":" + std::to_string(batch.requests.size()) +
            ",\"results\":" + std::to_string(stats.results) +
            ",\"head\":" + std::to_string(batch.requests.front().id) + "}");
    // One flow step per coalesced request, binding every rider's request
    // flow to the offload slice it travelled in.
    for (const Request& request : batch.requests) {
      obs.trace->flow_step(device, "request", "request", start,
                           obs::RequestContext::mint(request.id).trace_id);
    }
  }

  // CQ posting: completion interrupt one command latency after the
  // offload (whose elapsed already covers the result transfer) drains.
  const platform::SimTime completed_at =
      target_->device_now() + target_->completion_latency();
  in_flight_ = std::move(batch);
  push_event(completed_at, EventKind::kCompletion, Request{});
}

void QueryService::complete_batch(LoadGenerator& load) {
  NDPGEN_CHECK(in_flight_.has_value(),
               "completion event without an in-flight offload");
  Batch batch = std::move(*in_flight_);
  in_flight_.reset();
  obs::Observability& obs = target_->observability();
  obs::MetricsRegistry& m = obs.metrics;
  for (std::size_t i = 0; i < batch.requests.size(); ++i) {
    const Request& request = batch.requests[i];
    Completion completion;
    completion.id = request.id;
    completion.tenant = request.tenant;
    completion.results = batch.results_per_request[i];
    completion.batch_requests =
        static_cast<std::uint32_t>(batch.requests.size());
    completion.arrival = request.arrival;
    completion.admitted = request.admitted;
    completion.dispatched = batch.dispatched;
    completion.completed = now_;
    // End-to-end phase attribution. Every nanosecond of the request's
    // latency lands in exactly one bucket, so phases.total() == latency():
    //  * queueing  — arrival -> dispatch, minus the winning doorbell;
    //    covers SQ wait, kBusy backoff, and batch head-of-line delay;
    //  * doorbell  — host link reservation + device command/retry phase;
    //  * transfer  — device result DMA + the host-side completion
    //    residual (CQ interrupt latency and any device-queue skew);
    //  * flash/pe/merge — taken verbatim from the offload's breakdown.
    // Riders inherit the shared offload's device phases: the device
    // genuinely spent those cycles on the coalesced command they rode in.
    using obs::RequestPhase;
    const platform::SimTime pre_dispatch =
        completion.dispatched - completion.arrival;
    NDPGEN_CHECK(pre_dispatch >= request.doorbell_ns,
                 "dispatch precedes the admitting doorbell");
    const platform::SimTime post_dispatch =
        completion.completed - completion.dispatched;
    NDPGEN_CHECK(post_dispatch >= batch.service_ns,
                 "completion precedes the offload's service time");
    completion.phases[RequestPhase::kQueueing] =
        pre_dispatch - request.doorbell_ns;
    completion.phases[RequestPhase::kDoorbell] =
        request.doorbell_ns + batch.device_phases[RequestPhase::kDoorbell];
    completion.phases[RequestPhase::kTransfer] =
        batch.device_phases[RequestPhase::kTransfer] +
        (post_dispatch - batch.service_ns);
    completion.phases[RequestPhase::kFlash] =
        batch.device_phases[RequestPhase::kFlash];
    completion.phases[RequestPhase::kPe] =
        batch.device_phases[RequestPhase::kPe];
    completion.phases[RequestPhase::kMerge] =
        batch.device_phases[RequestPhase::kMerge];
    queues_[request.tenant].post(completion);

    TenantMetrics& tm = tenant_metrics_[request.tenant];
    TenantReport& tr = report_.tenants[request.tenant];
    ++report_.completed;
    ++tr.completed;
    report_.results += completion.results;
    tr.results += completion.results;
    m.add(m_completed_);
    m.add(tm.completed);
    m.add(m_results_, completion.results);
    m.add(tm.results, completion.results);
    m.observe(m_latency_, completion.latency());
    m.observe(tm.latency, completion.latency());
    report_.phases += completion.phases;
    tr.phases += completion.phases;
    last_completion_ = now_;

    if (obs.tracing()) {
      const obs::TrackId track = obs.trace->track(
          "host.tenant" + std::to_string(request.tenant));
      const std::uint64_t flow =
          obs::RequestContext::mint(request.id).trace_id;
      obs.trace->complete(
          track, "request", "host", completion.arrival,
          completion.latency(),
          "{\"request\":" + std::to_string(request.id) +
              ",\"results\":" + std::to_string(completion.results) +
              ",\"batch\":" + std::to_string(completion.batch_requests) +
              ",\"dominant\":\"" +
              std::string(obs::phase_name(completion.phases.dominant())) +
              "\",\"phases\":" + completion.phases.json() + "}");
      // Causal chain: request span (begin) -> offload slice (step) ->
      // device scan span (step, emitted by the executor) -> completion
      // (end), all keyed by the request-derived flow id.
      obs.trace->flow_begin(track, "request", "request", completion.arrival,
                            flow);
      obs.trace->flow_end(track, "request", "request", completion.completed,
                          flow);
    }
    if (obs.profiling()) {
      obs.profiler->record(obs::RequestProfile{
          completion.id, completion.tenant, completion.arrival,
          completion.completed, completion.phases});
    }

    if (!load.open_loop()) {
      if (auto next = load.next_for_client(
              request.client, now_ + load.config().think_time)) {
        push_event(next->arrival, EventKind::kArrival, *next);
      }
    }
  }
}

ServiceReport QueryService::run(LoadGenerator& load) {
  NDPGEN_CHECK_ARG(event_seq_ == 0,
                   "QueryService::run is single-use; build a fresh service "
                   "per run so reports and histograms stay per-run");
  NDPGEN_CHECK_ARG(load.config().tenants == config_.tenants,
                   "load and service disagree on the tenant count");
  report_ = ServiceReport{};
  report_.tenants.assign(config_.tenants, TenantReport{});

  if (load.open_loop()) {
    pull_open_arrival(load);
  } else {
    seed_closed_loop(load);
  }
  while (!events_.empty()) {
    const Event event = events_.top();
    events_.pop();
    now_ = event.at;
    if (event.kind == EventKind::kArrival && !saw_arrival_) {
      saw_arrival_ = true;
      first_arrival_ = event.at;
    }
    switch (event.kind) {
      case EventKind::kArrival:
        // Keep exactly one future open-loop arrival queued: arrivals are
        // nondecreasing, so pulling on consumption preserves order.
        if (load.open_loop()) pull_open_arrival(load);
        handle_submit(event.request, load);
        break;
      case EventKind::kRetry:
        handle_submit(event.request, load);
        break;
      case EventKind::kCompletion:
        complete_batch(load);
        break;
    }
    try_dispatch();
  }

  obs::MetricsRegistry& m = target_->observability().metrics;
  if (last_completion_ > first_arrival_) {
    report_.makespan_ns = last_completion_ - first_arrival_;
  }
  if (report_.makespan_ns > 0) {
    report_.throughput_rps = static_cast<double>(report_.completed) *
                             1e9 /
                             static_cast<double>(report_.makespan_ns);
  }
  report_.p50_ns = m.histogram_percentile("host.latency_ns", 0.50);
  report_.p95_ns = m.histogram_percentile("host.latency_ns", 0.95);
  report_.p99_ns = m.histogram_percentile("host.latency_ns", 0.99);
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    TenantReport& tr = report_.tenants[t];
    const std::string name =
        "host.tenant" + std::to_string(t) + ".latency_ns";
    tr.p50_ns = m.histogram_percentile(name, 0.50);
    tr.p95_ns = m.histogram_percentile(name, 0.95);
    tr.p99_ns = m.histogram_percentile(name, 0.99);
    tr.sq_high_water = queues_[t].sq_high_water();
    if (report_.makespan_ns > 0) {
      tr.throughput_rps = static_cast<double>(tr.completed) * 1e9 /
                          static_cast<double>(report_.makespan_ns);
    }
  }
  return report_;
}

}  // namespace ndpgen::host
