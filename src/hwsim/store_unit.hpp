// Simulated Store Unit (memory interface, write side).
//
// The configurable variant writes exactly the produced payload back to
// DRAM; the [1]-baseline static variant always writes complete 32 KB
// blocks, wasting memory bandwidth on padding (the contention effect the
// paper's flexible units eliminate).
#pragma once

#include <cstdint>

#include "hwsim/kernel.hpp"
#include "hwsim/memport.hpp"
#include "hwsim/stream.hpp"

namespace ndpgen::hwsim {

class SimStoreUnit final : public Module {
 public:
  SimStoreUnit(std::string name, AxiWriteChannel* channel,
               Stream<std::uint64_t>* in,
               std::uint32_t chunk_bytes, bool configurable);

  /// Begins a run targeting DRAM address `addr`.
  void start(std::uint64_t addr);

  /// Signals that the upstream pipeline has fully drained.
  void set_upstream_done(bool done) noexcept { upstream_done_ = done; }

  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override;

  /// All payload (and static-mode padding) has been queued to the channel.
  [[nodiscard]] bool done() const noexcept;

  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint64_t bytes_transferred() const noexcept {
    return bytes_transferred_;
  }

 private:
  friend class FastChunkEngine;

  AxiWriteChannel* channel_;
  Stream<std::uint64_t>* in_;
  std::uint32_t chunk_bytes_;
  bool configurable_;

  std::uint64_t addr_ = 0;
  std::uint64_t payload_bytes_ = 0;
  std::uint64_t bytes_transferred_ = 0;
  bool upstream_done_ = false;
  bool started_ = false;
};

}  // namespace ndpgen::hwsim
