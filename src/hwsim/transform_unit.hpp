// Simulated Data Transformation Unit.
//
// Rewires the padded input tuple into the padded output tuple according to
// the resolved leaf mapping (identity, automatic, or user-specified —
// paper §IV-B cases 1-3). Pure combinational remap + elastic FIFO: one
// tuple per cycle.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/analyzer.hpp"
#include "hwsim/kernel.hpp"
#include "hwsim/stream.hpp"
#include "hwsim/tuple_buffer.hpp"

namespace ndpgen::hwsim {

class SimTransformUnit final : public Module {
 public:
  SimTransformUnit(std::string name, const analysis::AnalyzedParser& parser,
                   Stream<Tuple>* in, Stream<Tuple>* out);

  void cycle(std::uint64_t now) override;

 private:
  friend class FastChunkEngine;

  struct Wire {
    std::uint32_t src_offset;
    std::uint32_t dst_offset;
    std::uint32_t width;
  };

  Stream<Tuple>* in_;
  Stream<Tuple>* out_;
  std::vector<Wire> wires_;
  std::uint32_t out_bits_;
  bool identity_;
};

}  // namespace ndpgen::hwsim
