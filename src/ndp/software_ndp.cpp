#include "ndp/software_ndp.hpp"

namespace ndpgen::ndp {

SwBlockResult SoftwareNdp::filter_block(
    std::span<const std::uint8_t> block,
    const std::vector<BoundPredicate>& predicates, bool collect) const {
  SwBlockResult result;
  const kv::BlockTrailer trailer = kv::read_trailer(block);
  result.tuples_in = trailer.record_count;
  const std::uint32_t out_bytes = parser_.plan.output_bytes();
  for (std::uint32_t i = 0; i < trailer.record_count; ++i) {
    const auto record = kv::block_record(block, trailer, i);
    if (!matches(parser_.plan, operators_, record, predicates)) continue;
    ++result.tuples_out;
    if (collect) {
      result.records.resize(result.records.size() + out_bytes);
      parser_.plan.project(
          record, std::span<std::uint8_t>(result.records).last(out_bytes));
    }
  }
  result.arm_cost =
      block_cost(kv::block_payload_bytes(trailer), result.tuples_in,
                 static_cast<std::uint32_t>(predicates.size()),
                 result.tuples_out);
  return result;
}

platform::SimTime SoftwareNdp::block_cost(std::uint64_t payload_bytes,
                                          std::uint64_t tuples,
                                          std::uint32_t stages,
                                          std::uint64_t tuples_out) const {
  const platform::SimTime parse = timing_.arm_parse_time(payload_bytes);
  const platform::SimTime predicates =
      tuples * stages * timing_.arm_predicate_per_tuple;
  const platform::SimTime emit =
      timing_.arm_parse_time(tuples_out * parser_.output.storage_bytes()) / 2;
  return timing_.firmware(timing_.arm_block_dispatch) + parse + predicates +
         emit;
}

}  // namespace ndpgen::ndp
