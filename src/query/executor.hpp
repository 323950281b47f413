// Compiled-plan execution: device leaves + deterministic SW tail.
//
// QueryExecutor builds one core::Testbed (platform + store + PE) per scan
// leaf — the probe and build sides of a join live in separate
// namespaces, served serially by the device, so the virtual elapsed time
// is the sum of the leaf offloads plus the modeled host time of the SW
// tail. No result row is a heap object of its own before the final
// ResultTable: each leaf decodes the scan's record sink straight into a
// row-major table (one u64 vector plus a width); filter compacts it in
// place, project rebuilds it; the join gives each distinct probe key a
// dense slot and lays the build matches out by a counted prefix sum, so it
// emits probe order, then build order within a key; the grouped aggregate
// folds each group in row order and then orders the groups by key; top-k
// sorts row indices under a total order. Every order is a function of
// the rows alone, so results are byte-stable across
// --pes/--threads/--sim-mode and fault profiles — the repo's determinism
// matrix extended to whole plans.
//
// The host-side cost model is intentionally simple and fully integer-
// deterministic: per-operator dispatch plus per-row work (constants
// below, documented in DESIGN.md §14). It exists to rank HW-offloaded vs
// SW-fallback vs reference executions, not to model a specific host CPU.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_profile.hpp"
#include "hwgen/operators.hpp"
#include "hwsim/kernel.hpp"
#include "platform/event_queue.hpp"
#include "query/compiler.hpp"

namespace ndpgen::query {

struct QueryExecOptions {
  std::uint64_t scale_divisor = 32768;
  std::uint32_t pes = 1;     ///< PE shards per leaf scan.
  std::uint32_t threads = 0; ///< Host threads driving the shards.
  hwsim::SimMode sim_mode = hwsim::sim_mode_from_env();
  fault::FaultProfile fault; ///< Media/device fault profile per leaf.
};

/// Per-leaf execution record.
struct LeafRunStats {
  Dataset dataset = Dataset::kPapers;
  bool offloaded = false;
  std::uint64_t records_loaded = 0;
  std::uint64_t blocks = 0;
  std::uint64_t tuples_scanned = 0;
  std::uint64_t rows_out = 0;           ///< After residual predicates.
  std::uint32_t hw_filter_stages = 0;   ///< 0 on the SW fallback.
  platform::SimTime elapsed = 0;        ///< Device-side virtual time.
  std::uint64_t blocks_degraded_to_software = 0;
  std::uint64_t uncorrectable_blocks = 0;
};

struct QueryStats {
  platform::SimTime device_ns = 0;  ///< Sum of leaf offload times.
  platform::SimTime host_ns = 0;    ///< Modeled SW tail time.
  std::uint64_t rows_out = 0;
  std::vector<LeafRunStats> leaves;

  [[nodiscard]] platform::SimTime elapsed() const noexcept {
    return device_ns + host_ns;
  }
};

/// Executes a compiled plan end to end; construct per run (the device
/// stacks are built fresh so every run starts from the same virtual t=0,
/// which is what makes reruns byte-identical).
[[nodiscard]] ResultTable execute_plan(const CompiledPlan& plan,
                                       const QueryExecOptions& options,
                                       QueryStats* stats = nullptr);

/// A plan predicate bound once to its standard compare operator (the
/// hwgen::OperatorSet entry the PE and SoftwareNdp evaluate) and to its
/// column's interpretation and width. Shared by the executor's tail and
/// the serving path's row filter.
class RowPredicate {
 public:
  /// Throws Error{kInternal} for an operator outside the validated plan
  /// vocabulary.
  RowPredicate(const PlanPredicate& predicate,
               const analysis::PlanField& column);

  /// True when the column's raw (zero-extended) word passes.
  [[nodiscard]] bool passes(std::uint64_t raw) const {
    return op_->eval(hwgen::CompareOperand{raw, rhs_.interp, rhs_.width_bits},
                     rhs_);
  }

 private:
  const hwgen::CompareOp* op_;
  hwgen::CompareOperand rhs_;
};

// --- Host cost model (ns; see DESIGN.md §14) ---------------------------
inline constexpr std::uint64_t kHostOpDispatchNs = 2'000;
inline constexpr std::uint64_t kHostDecodeNsPerRow = 6;
inline constexpr std::uint64_t kHostFilterNsPerRowPred = 8;
inline constexpr std::uint64_t kHostProjectNsPerRow = 4;
inline constexpr std::uint64_t kHostJoinBuildNsPerRow = 40;
inline constexpr std::uint64_t kHostJoinProbeNsPerRow = 24;
inline constexpr std::uint64_t kHostJoinEmitNsPerRow = 10;
inline constexpr std::uint64_t kHostGroupNsPerRow = 32;
inline constexpr std::uint64_t kHostSortNsPerRowLog = 18;

}  // namespace ndpgen::query
