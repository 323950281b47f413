#include "host/load_generator.hpp"

#include <algorithm>

namespace ndpgen::host {

LoadGenerator::LoadGenerator(LoadConfig config)
    : config_(config), rng_(config.seed), clock_(config.start_ns) {
  NDPGEN_CHECK_ARG(config_.tenants >= 1, "load needs at least one tenant");
  NDPGEN_CHECK_ARG(config_.key_space >= 1,
                   "load needs a non-empty key space");
  NDPGEN_CHECK_ARG(config_.span_keys >= 1,
                   "request ranges must cover at least one key");
  NDPGEN_CHECK_ARG(config_.closed_loop_clients > 0 ||
                       config_.arrival_rate >= 1,
                   "open loop needs a positive arrival rate");
  // Spread tenant walk starts over the key space so tenants touch
  // different blocks until their walks wrap.
  positions_.resize(config_.tenants);
  for (std::uint32_t t = 0; t < config_.tenants; ++t) {
    positions_[t] = 1 + (config_.key_space * t) / config_.tenants;
  }
}

Request LoadGenerator::make_request(std::uint32_t tenant,
                                    std::uint32_t client,
                                    platform::SimTime at) {
  std::uint64_t& position = positions_[tenant];
  if (rng_.below(kJumpOneIn) == 0) {
    position = 1 + rng_.below(config_.key_space);
  }
  const std::uint64_t lo = position;
  const std::uint64_t hi =
      std::min(config_.key_space, lo + config_.span_keys - 1);
  position = hi >= config_.key_space ? 1 : hi + 1;

  Request request;
  request.id = ++issued_;
  request.tenant = tenant;
  request.client = client;
  request.lo = kv::Key{lo, 0};
  request.hi = kv::Key{hi, 0};
  request.arrival = at;
  return request;
}

std::optional<Request> LoadGenerator::next_arrival() {
  NDPGEN_CHECK_ARG(open_loop(),
                   "next_arrival is the open-loop driver; closed loops "
                   "issue via next_for_client");
  if (issued_ >= config_.requests) return std::nullopt;
  // Seeded renewal process with integer jitter: gaps are uniform in
  // [base/2, 3*base/2), mean = base = 1s / rate. Integer-only so the
  // schedule is byte-reproducible across platforms.
  const platform::SimTime base =
      std::max<platform::SimTime>(1, platform::kNsPerSec /
                                         config_.arrival_rate);
  clock_ += base / 2 + rng_.below(std::max<std::uint64_t>(1, base));
  const auto tenant =
      static_cast<std::uint32_t>(rng_.below(config_.tenants));
  return make_request(tenant, tenant, clock_);
}

std::optional<Request> LoadGenerator::next_for_client(std::uint32_t client,
                                                      platform::SimTime at) {
  NDPGEN_CHECK_ARG(!open_loop(),
                   "next_for_client is the closed-loop driver");
  NDPGEN_CHECK_ARG(client < config_.closed_loop_clients,
                   "client index out of range");
  if (issued_ >= config_.requests) return std::nullopt;
  return make_request(client % config_.tenants, client, at);
}

}  // namespace ndpgen::host
