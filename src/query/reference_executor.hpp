// Naive host-side reference executor: evaluates the UNOPTIMIZED logical
// plan directly against the deterministic pubgraph generator, operator by
// operator, with no device model, no pushdown and no pruning. Its only
// job is to define the correct answer: every compiled execution (HW
// chain, residual cut, SW fallback) must produce a byte-identical
// ResultTable. Its join is a sort-merge (both sides stably ordered by
// key, each probe row's run of build rows emitted in probe order), which
// shares no code with the compiled slot join and grows as n log n, so
// plans can be checked at the benchmark's scale. The modeled cost mirrors the classical host path
// analytically (all records cross NVMe at payload rate, per-row host
// work) so benches can plot it as the no-NDP baseline without building a
// device stack.
#pragma once

#include "query/executor.hpp"
#include "query/plan.hpp"

namespace ndpgen::query {

struct ReferenceStats {
  std::uint64_t rows_scanned = 0;  ///< Base records read (all leaves).
  std::uint64_t rows_out = 0;
  std::uint64_t transfer_ns = 0;  ///< Modeled NVMe time for raw records.
  std::uint64_t host_ns = 0;      ///< Modeled per-row host work.

  [[nodiscard]] std::uint64_t elapsed() const noexcept {
    return transfer_ns + host_ns;
  }
};

/// Runs `plan` naively at `scale_divisor`. Aggregate folds follow the
/// hardware unit's init values (count/sum: 0, min: 2^64-1, max: 0) so
/// empty match sets agree byte-for-byte with the device path.
[[nodiscard]] ResultTable reference_execute(const Plan& plan,
                                            std::uint64_t scale_divisor,
                                            ReferenceStats* stats = nullptr);

}  // namespace ndpgen::query
