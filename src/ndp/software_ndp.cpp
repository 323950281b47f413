#include "ndp/software_ndp.hpp"

namespace ndpgen::ndp {

SwBlockResult SoftwareNdp::filter_block(std::span<const std::uint8_t> block,
                                        const RecordFilter& filter,
                                        bool collect) const {
  SwBlockResult result;
  const kv::BlockTrailer trailer = kv::read_trailer(block);
  result.tuples_in = trailer.record_count;
  std::vector<std::uint32_t> survivors;
  filter.select(block.data(), trailer.record_count, trailer.record_bytes,
                survivors);
  result.tuples_out = survivors.size();
  if (collect) {
    const std::uint32_t out_bytes = parser_.plan.output_bytes();
    result.records.resize(survivors.size() * out_bytes);
    std::size_t at = 0;
    for (const std::uint32_t id : survivors) {
      parser_.plan.project(
          kv::block_record(block, trailer, id),
          std::span<std::uint8_t>(result.records).subspan(at, out_bytes));
      at += out_bytes;
    }
  }
  result.arm_cost =
      block_cost(kv::block_payload_bytes(trailer), result.tuples_in,
                 static_cast<std::uint32_t>(filter.size()),
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
