#include "hwsim/transform_unit.hpp"

#include "support/error.hpp"

namespace ndpgen::hwsim {

SimTransformUnit::SimTransformUnit(std::string name,
                                   const analysis::AnalyzedParser& parser,
                                   Stream<Tuple>* in, Stream<Tuple>* out)
    : Module(std::move(name)),
      in_(in),
      out_(out),
      out_bits_(parser.output.padded_bits),
      identity_(parser.mapping.identity &&
                parser.input.padded_bits == parser.output.padded_bits) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "transform unit needs both streams");
  for (const auto& mapping : parser.mapping.wires) {
    const auto& src = parser.input.fields[mapping.input_field];
    const auto& dst = parser.output.fields[mapping.output_field];
    wires_.push_back(Wire{src.padded_offset_bits, dst.padded_offset_bits,
                          dst.storage_width_bits});
  }
}

void SimTransformUnit::cycle(std::uint64_t /*now*/) {
  if (!in_->can_pop() || !out_->can_push()) return;
  Tuple input = in_->pop();
  if (identity_) {
    out_->push(std::move(input));
  } else {
    Tuple output(out_bits_);
    for (const auto& wire : wires_) {
      output.deposit(wire.dst_offset, input.slice(wire.src_offset, wire.width));
    }
    out_->push(std::move(output));
  }
}

}  // namespace ndpgen::hwsim
