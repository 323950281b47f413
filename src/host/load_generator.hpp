// Seeded, deterministic workload driver for the host query service.
//
// Two driving disciplines (both integer-only, so a fixed seed reproduces
// the exact byte sequence on every platform):
//  * open loop  — arrivals follow a seeded renewal process at a configured
//    mean rate, independent of service completions (the discipline that
//    exposes saturation: offered load keeps coming when the device falls
//    behind);
//  * closed loop — a fixed population of clients each keeps exactly one
//    request outstanding, issuing the next one `think_time` after the
//    previous completion (self-throttling; measures capacity, not tail
//    blow-up).
//
// Requests are range scans over per-tenant key windows that mostly walk
// forward (adjacent ranges — what the service's coalescing exploits) and
// occasionally jump to a random position (1-in-kJumpOneIn), breaking
// batches the way independent clients would.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "host/queue_pair.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace ndpgen::host {

/// Locality break: each request jumps to a random window with
/// probability 1/kJumpOneIn.
inline constexpr std::uint64_t kJumpOneIn = 8;

struct LoadConfig {
  std::uint32_t tenants = 4;
  /// Total request budget across all tenants/clients.
  std::uint64_t requests = 256;
  /// Open loop: mean offered load in requests per virtual second.
  std::uint64_t arrival_rate = 1000;
  /// > 0 switches to closed loop with this many clients.
  std::uint32_t closed_loop_clients = 0;
  /// Closed loop: per-client pause between completion and next issue.
  platform::SimTime think_time = 0;
  /// Open-loop arrival-clock origin. Lets a second load segment continue
  /// a timeline whose device clock has already advanced (e.g. measuring a
  /// cluster after failover): arrivals start here instead of at 0, so
  /// completion latencies stay arrival-relative, not epoch-relative.
  platform::SimTime start_ns = 0;
  /// Record ids span [1, key_space]; keys are (id, 0). Required.
  std::uint64_t key_space = 0;
  /// Ids covered per request range.
  std::uint64_t span_keys = 48;
  std::uint64_t seed = 20210521;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(LoadConfig config);

  [[nodiscard]] const LoadConfig& config() const noexcept { return config_; }
  [[nodiscard]] bool open_loop() const noexcept {
    return config_.closed_loop_clients == 0;
  }

  /// Open loop: the next arrival, with nondecreasing arrival times;
  /// nullopt once the request budget is spent.
  std::optional<Request> next_arrival();

  /// Closed loop: the request client `client` issues at time `at`;
  /// nullopt once the request budget is spent. Clients map to tenants
  /// round-robin (client % tenants).
  std::optional<Request> next_for_client(std::uint32_t client,
                                         platform::SimTime at);

  [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }

 private:
  Request make_request(std::uint32_t tenant, std::uint32_t client,
                       platform::SimTime at);

  LoadConfig config_;
  support::Xoshiro256 rng_;
  std::vector<std::uint64_t> positions_;  ///< Per-tenant walk position.
  platform::SimTime clock_ = 0;           ///< Open-loop arrival clock.
  std::uint64_t issued_ = 0;
};

}  // namespace ndpgen::host
