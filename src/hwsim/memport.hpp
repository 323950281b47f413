// One PE's AXI memory interface: a read channel and a write channel.
//
// Each PE reaches the PS-DRAM through its own Load and Store units on
// separate AXI4 read and write masters; memory contention is the main
// bottleneck those configurable units are designed to relieve (paper
// §IV-B, "Memory Interface"). The interconnect grants at most a fixed
// number of 64-bit beats per cycle, shared by the two channels and
// granted round-robin between them; read data returns after a fixed
// latency, in request order.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "hwsim/kernel.hpp"

namespace ndpgen::hwsim {

/// Flat byte-addressable backing store (the simulated PS-DRAM contents).
class SimMemory {
 public:
  explicit SimMemory(std::size_t bytes);

  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  [[nodiscard]] std::uint64_t read_u64(std::uint64_t addr) const;
  void write_u64(std::uint64_t addr, std::uint64_t value);

  [[nodiscard]] std::span<const std::uint8_t> read_bytes(
      std::uint64_t addr, std::size_t length) const;
  void write_bytes(std::uint64_t addr, std::span<const std::uint8_t> bytes);

 private:
  /// True when [addr, addr + length) lies inside the memory.
  [[nodiscard]] bool in_bounds(std::uint64_t addr,
                               std::uint64_t length) const noexcept;

  std::vector<std::uint8_t> data_;
};

/// The Load Unit's AXI read master. Beats queue here until the
/// interconnect grants them; each granted beat's data becomes available
/// `read_latency` cycles later.
class AxiReadChannel {
 public:
  /// Queues a read of `beats` consecutive 64-bit beats starting at `addr`.
  void request(std::uint64_t addr, std::uint32_t beats);

  /// True if read data is ready to be consumed this cycle.
  [[nodiscard]] bool data_available(std::uint64_t now) const noexcept;

  /// Pops one beat of read data (call only when available).
  [[nodiscard]] std::uint64_t pop_data(std::uint64_t now);

  /// Beats still queued for grant (backpressure signal).
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return queue_.size();
  }

  /// No queued beat and no undelivered data.
  [[nodiscard]] bool idle() const noexcept {
    return queue_.empty() && responses_.empty();
  }

 private:
  friend class AxiInterconnect;

  struct Response {
    std::uint64_t ready_at;
    std::uint64_t data;
  };

  std::deque<std::uint64_t> queue_;  ///< Addresses awaiting grant.
  std::deque<Response> responses_;
};

/// The Store Unit's AXI write master: a granted beat lands in memory at
/// once.
class AxiWriteChannel {
 public:
  /// Queues one write beat.
  void request(std::uint64_t addr, std::uint64_t data);

  /// Beats still queued for grant (backpressure signal).
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return queue_.size();
  }

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

 private:
  friend class AxiInterconnect;

  struct Request {
    std::uint64_t addr;
    std::uint64_t data;
  };

  std::deque<Request> queue_;
};

/// The interconnect: a Module ticked by the kernel that grants the two
/// channels' beats under one per-cycle cap.
class AxiInterconnect final : public Module {
 public:
  struct Config {
    std::uint32_t beats_per_cycle = 2;  ///< Shared read + write grants.
    std::uint32_t read_latency = 20;    ///< Cycles from grant to data.
    std::uint32_t max_outstanding = 64; ///< Read responses in flight.
  };

  AxiInterconnect(SimMemory& memory, Config config);

  [[nodiscard]] AxiReadChannel& read_channel() noexcept { return read_; }
  [[nodiscard]] AxiWriteChannel& write_channel() noexcept { return write_; }

  /// Grants up to beats_per_cycle beats, alternating between the
  /// channels: the one not granted last is asked first, and a channel
  /// with nothing grantable yields to the other.
  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override {
    return read_.idle() && write_.idle();
  }

 private:
  friend class FastChunkEngine;

  SimMemory& memory_;
  Config config_;
  AxiReadChannel read_;
  AxiWriteChannel write_;
  bool write_first_ = false;  ///< Round-robin state: who is asked first.
};

}  // namespace ndpgen::hwsim
