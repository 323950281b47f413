// Shared AXI memory model with contention.
//
// All PEs (and the flash DMA engine) reach the PS-DRAM through one shared
// interconnect; memory contention is the main bottleneck the configurable
// Load/Store units of this work are designed to relieve (paper §IV-B,
// "Memory Interface"). The interconnect grants a fixed number of 64-bit
// beats per cycle, arbitrated round-robin across ports; read data returns
// after a fixed latency.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
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

  void fill(std::uint8_t value) noexcept;

 private:
  std::vector<std::uint8_t> data_;
};

class AxiInterconnect;

/// One master port on the shared interconnect (one per PE load/store pair
/// plus one for the flash DMA).
class AxiPort {
 public:
  /// Queues a read of `beats` consecutive 64-bit beats starting at `addr`.
  void request_read(std::uint64_t addr, std::uint32_t beats);

  /// True if read data is ready to be consumed this cycle.
  [[nodiscard]] bool read_data_available(std::uint64_t now) const noexcept;

  /// Pops one beat of read data (call only when available).
  [[nodiscard]] std::uint64_t pop_read_data(std::uint64_t now);

  /// Queues one write beat.
  void request_write(std::uint64_t addr, std::uint64_t data);

  /// Outstanding work on this port (requests or undelivered data).
  [[nodiscard]] bool idle() const noexcept;

  /// Beats still queued for issue (backpressure signal).
  [[nodiscard]] std::size_t pending_requests() const noexcept {
    return read_queue_.size() + write_queue_.size();
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  // Statistics.
  [[nodiscard]] std::uint64_t read_beats() const noexcept { return read_beats_; }
  [[nodiscard]] std::uint64_t write_beats() const noexcept {
    return write_beats_;
  }

 private:
  friend class AxiInterconnect;
  friend class FastChunkEngine;
  explicit AxiPort(std::string name) : name_(std::move(name)) {}

  struct ReadRequest {
    std::uint64_t addr;
  };
  struct WriteRequest {
    std::uint64_t addr;
    std::uint64_t data;
  };
  struct ReadResponse {
    std::uint64_t ready_at;
    std::uint64_t data;
  };

  std::string name_;
  std::deque<ReadRequest> read_queue_;
  std::deque<WriteRequest> write_queue_;
  std::deque<ReadResponse> responses_;
  std::uint64_t read_beats_ = 0;
  std::uint64_t write_beats_ = 0;
};

/// The shared interconnect: a Module ticked by the kernel.
class AxiInterconnect final : public Module {
 public:
  struct Config {
    std::uint32_t beats_per_cycle = 2;  ///< Aggregate grant bandwidth.
    std::uint32_t read_latency = 20;    ///< Cycles from grant to data.
    std::uint32_t max_outstanding = 64; ///< Per-port responses in flight.
  };

  AxiInterconnect(SimMemory& memory, Config config);

  /// Creates a port. Ports are owned by the interconnect.
  [[nodiscard]] AxiPort* create_port(std::string name);

  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override;

  // Statistics.
  [[nodiscard]] std::uint64_t total_beats() const noexcept {
    return total_beats_;
  }
  [[nodiscard]] std::uint64_t contended_cycles() const noexcept {
    return contended_cycles_;
  }

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] SimMemory& memory() noexcept { return memory_; }

 private:
  friend class FastChunkEngine;

  SimMemory& memory_;
  Config config_;
  std::vector<std::unique_ptr<AxiPort>> ports_;
  std::size_t rr_cursor_ = 0;
  std::uint64_t total_beats_ = 0;
  std::uint64_t contended_cycles_ = 0;
};

}  // namespace ndpgen::hwsim
