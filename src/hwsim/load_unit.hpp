// Simulated Load Unit (memory interface, read side).
//
// Our configurable variant loads exactly the number of bytes programmed
// into IN_SIZE; the [1]-baseline static variant always transfers complete
// 32 KB blocks regardless of payload (paper §IV-B, "Memory Interface").
#pragma once

#include <cstdint>

#include "hwsim/kernel.hpp"
#include "hwsim/memport.hpp"
#include "hwsim/stream.hpp"

namespace ndpgen::hwsim {

class SimLoadUnit final : public Module {
 public:
  /// `configurable` selects the flexible (generated) behaviour; static
  /// units round every transfer up to `chunk_bytes`.
  SimLoadUnit(std::string name, AxiReadChannel* channel,
              Stream<std::uint64_t>* out,
              std::uint32_t chunk_bytes, bool configurable);

  /// Begins loading `bytes` from DRAM address `addr`.
  void start(std::uint64_t addr, std::uint32_t bytes);

  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override;

  /// True once every requested word has been pushed downstream.
  [[nodiscard]] bool done() const noexcept {
    return words_pushed_ == words_total_;
  }

  /// Bytes actually transferred by the last/current run (the static
  /// baseline transfers chunk_bytes even for smaller payloads).
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return std::uint64_t{words_total_} * 8;
  }

  /// Payload bits delivered (valid data, excluding static-mode padding).
  [[nodiscard]] std::uint64_t payload_bits() const noexcept {
    return std::uint64_t{payload_bytes_} * 8;
  }

 private:
  friend class FastChunkEngine;

  AxiReadChannel* channel_;
  Stream<std::uint64_t>* out_;
  std::uint32_t chunk_bytes_;
  bool configurable_;

  std::uint32_t words_total_ = 0;
  std::uint32_t words_requested_ = 0;
  std::uint32_t words_pushed_ = 0;
  std::uint32_t payload_bytes_ = 0;
  std::uint64_t addr_ = 0;
};

}  // namespace ndpgen::hwsim
