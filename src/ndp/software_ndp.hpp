// Software NDP: the on-device ARM implementation of filter + transform.
//
// Runs the exact same semantics as the generated PE (reading and
// projecting tuples through the parser's record plan, like the fused PE
// replay) over assembled data blocks, and exposes the ARM time a
// block costs under the platform's cost model. The hybrid executors charge
// this cost on the DES clock.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/analyzer.hpp"
#include "kv/block_format.hpp"
#include "ndp/predicate.hpp"
#include "platform/timing.hpp"

namespace ndpgen::ndp {

/// Outcome of software-processing one data block.
struct SwBlockResult {
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_out = 0;
  /// If collected: the `tuples_out` output-layout survivors back to back.
  std::vector<std::uint8_t> records;
  platform::SimTime arm_cost = 0;  ///< Un-charged ARM time for this block.
};

class SoftwareNdp {
 public:
  SoftwareNdp(const analysis::AnalyzedParser& parser,
              const hwgen::OperatorSet& operators,
              const platform::TimingConfig& timing)
      : parser_(parser), operators_(operators), timing_(timing) {}

  /// Filters + transforms one 32 KiB data block: `filter` (a conjunction
  /// over the parser's record plan) walks the whole block. When `collect`
  /// is false only counts are produced (the common SCAN-aggregate case).
  [[nodiscard]] SwBlockResult filter_block(std::span<const std::uint8_t> block,
                                           const RecordFilter& filter,
                                           bool collect) const;
  /// The same with `predicates` bound for this one block; callers that
  /// filter many blocks bind a RecordFilter once.
  [[nodiscard]] SwBlockResult filter_block(
      std::span<const std::uint8_t> block,
      const std::vector<BoundPredicate>& predicates, bool collect) const {
    return filter_block(
        block, RecordFilter(parser_.plan, operators_, predicates), collect);
  }

  /// ARM cost of software-filtering a block of `payload_bytes` payload
  /// with `tuples` tuples and `stages` predicates, of which `tuples_out`
  /// survive (each emitted as one output-layout record).
  [[nodiscard]] platform::SimTime block_cost(std::uint64_t payload_bytes,
                                             std::uint64_t tuples,
                                             std::uint32_t stages,
                                             std::uint64_t tuples_out) const;

 private:
  const analysis::AnalyzedParser& parser_;
  const hwgen::OperatorSet& operators_;
  const platform::TimingConfig& timing_;
};

}  // namespace ndpgen::ndp
