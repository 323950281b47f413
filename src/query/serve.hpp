// Serving plans through the host QueryService.
//
// The service path keeps the device pinned to the stock PaperScan PE
// (one HW filter stage, Paper -> PaperResult projection) — re-flashing a
// per-plan bitstream under live multi-tenant load is exactly what a
// smart-SSD deployment avoids. A plan is servable when its tail is
// STREAMABLE: row-local, constant-space operators only (filter,
// project). Join/aggregate/top-k hold whole-result state and are
// rejected with a typed kInvalidArg — run those through `ndpgen query`.
//
// PlanTarget is an OffloadTarget decorator implementing the cut for this
// fixed-PE world: the first pushed predicate rides the device's HW
// filter stage (via ServiceConfig::predicates), every remaining
// predicate is applied row-wise to the offload's output records, and an
// optional projection repacks survivors (id first, so per-request result
// accounting keeps working). The modeled host time of that tail is added
// to the offload's elapsed AND to phases.merge, preserving the
// test-enforced invariant phases.total() == elapsed; the device timeline
// advances past it so later dispatches see the cost.
#pragma once

#include <optional>

#include "analysis/record_plan.hpp"
#include "host/service.hpp"
#include "query/executor.hpp"
#include "query/plan.hpp"

namespace ndpgen::query {

/// Streamable-tail decorator over any device-side target (single device
/// or cluster coordinator).
class PlanTarget final : public host::OffloadTarget {
 public:
  /// `layout` is the inner PE's OUTPUT record layout; every row-filter
  /// and projection column must resolve in it (kInvalidArg otherwise).
  PlanTarget(host::OffloadTarget& inner,
             const analysis::TupleLayout& layout,
             std::vector<PlanPredicate> row_filters,
             std::vector<std::string> project_columns);

  [[nodiscard]] obs::Observability& observability() noexcept override {
    return inner_.observability();
  }
  platform::LinkGrant doorbell(platform::SimTime at) override {
    return inner_.doorbell(at);
  }
  [[nodiscard]] platform::SimTime device_now() override {
    return inner_.device_now();
  }
  void advance_device_to(platform::SimTime at) override {
    inner_.advance_device_to(at);
  }
  [[nodiscard]] platform::SimTime completion_latency() const override {
    return inner_.completion_latency();
  }
  ndp::ScanStats multi_range_scan(
      const std::vector<ndp::KeyRange>& ranges,
      const std::vector<ndp::FilterPredicate>& predicates,
      std::vector<std::vector<std::uint8_t>>* records) override;

  [[nodiscard]] std::uint64_t rows_filtered() const noexcept {
    return rows_filtered_;
  }

 private:
  host::OffloadTarget& inner_;
  std::vector<RowPredicate> filters_;
  analysis::RecordPlan filter_plan_;  ///< Field i feeds filters_[i].
  analysis::RecordPlan projection_;   ///< No fields = keep device layout.
  std::uint64_t rows_filtered_ = 0;   ///< Rows dropped by the tail.
};

struct ServePlanConfig {
  std::uint64_t scale_divisor = 32768;
  std::uint32_t tenants = 4;
  std::uint64_t requests = 192;
  std::uint64_t arrival_rate = 2000;
  std::uint64_t seed = 20210521;
  std::uint32_t queue_depth = 16;
  std::uint32_t batch_limit = 8;
  fault::FaultProfile fault;
};

struct ServeReport {
  host::ServiceReport service;
  std::uint64_t rows_filtered = 0;   ///< Dropped by the streamable tail.
  std::size_t device_predicates = 0; ///< Pushed onto the HW filter stage.
  std::size_t tail_predicates = 0;   ///< Row-filtered host-side.
  bool projected = false;
};

/// Checks the streamability rule without building anything; nullopt
/// means the plan can be served.
[[nodiscard]] std::optional<Status> servable(const Plan& plan);

/// Builds the single-device pubgraph stack (stock PaperScan PE) and
/// drives an open-loop multi-tenant load through QueryService behind a
/// PlanTarget for `plan`. Fails with kInvalidArg when !servable(plan).
[[nodiscard]] Result<ServeReport> serve_plan(const Plan& plan,
                                             const ServePlanConfig& config);

}  // namespace ndpgen::query
