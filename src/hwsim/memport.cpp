#include "hwsim/memport.hpp"

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

SimMemory::SimMemory(std::size_t bytes) : data_(bytes, 0) {
  NDPGEN_CHECK_ARG(bytes > 0, "memory size must be > 0");
}

bool SimMemory::in_bounds(std::uint64_t addr,
                          std::uint64_t length) const noexcept {
  // Written so that no sum can wrap for addresses near 2^64.
  return addr <= data_.size() && length <= data_.size() - addr;
}

std::uint64_t SimMemory::read_u64(std::uint64_t addr) const {
  NDPGEN_CHECK_ARG(in_bounds(addr, 8), "DRAM read out of bounds");
  return support::load_le<8>(data_.data() + addr);
}

void SimMemory::write_u64(std::uint64_t addr, std::uint64_t value) {
  NDPGEN_CHECK_ARG(in_bounds(addr, 8), "DRAM write out of bounds");
  support::store_u64(data_.data() + addr, value);
}

std::span<const std::uint8_t> SimMemory::read_bytes(std::uint64_t addr,
                                                    std::size_t length) const {
  NDPGEN_CHECK_ARG(in_bounds(addr, length), "DRAM read out of bounds");
  return std::span<const std::uint8_t>(data_.data() + addr, length);
}

void SimMemory::write_bytes(std::uint64_t addr,
                            std::span<const std::uint8_t> bytes) {
  NDPGEN_CHECK_ARG(in_bounds(addr, bytes.size()), "DRAM write out of bounds");
  std::copy(bytes.begin(), bytes.end(), data_.begin() + static_cast<std::ptrdiff_t>(addr));
}

void AxiReadChannel::request(std::uint64_t addr, std::uint32_t beats) {
  for (std::uint32_t i = 0; i < beats; ++i) {
    queue_.push_back(addr + std::uint64_t{i} * 8);
  }
}

bool AxiReadChannel::data_available(std::uint64_t now) const noexcept {
  return !responses_.empty() && responses_.front().ready_at <= now;
}

std::uint64_t AxiReadChannel::pop_data(std::uint64_t now) {
  NDPGEN_CHECK(data_available(now), "no read data on the AXI read channel");
  const std::uint64_t data = responses_.front().data;
  responses_.pop_front();
  return data;
}

void AxiWriteChannel::request(std::uint64_t addr, std::uint64_t data) {
  queue_.push_back(Request{addr, data});
}

AxiInterconnect::AxiInterconnect(SimMemory& memory, Config config)
    : Module("axi_interconnect"), memory_(memory), config_(config) {
  NDPGEN_CHECK_ARG(config.beats_per_cycle >= 1, "need >= 1 beat per cycle");
}

void AxiInterconnect::cycle(std::uint64_t now) {
  std::uint32_t granted = 0;
  while (granted < config_.beats_per_cycle) {
    const bool can_read = !read_.queue_.empty() &&
                          read_.responses_.size() < config_.max_outstanding;
    const bool can_write = !write_.queue_.empty();
    if (!can_read && !can_write) break;
    const bool write = can_write && (write_first_ || !can_read);
    if (write) {
      const AxiWriteChannel::Request request = write_.queue_.front();
      write_.queue_.pop_front();
      memory_.write_u64(request.addr, request.data);
    } else {
      const std::uint64_t addr = read_.queue_.front();
      read_.queue_.pop_front();
      read_.responses_.push_back(AxiReadChannel::Response{
          now + config_.read_latency, memory_.read_u64(addr)});
    }
    // The channel that got the grant is asked after the other one.
    write_first_ = !write;
    ++granted;
  }
}

void AxiInterconnect::reset() {
  read_.queue_.clear();
  read_.responses_.clear();
  write_.queue_.clear();
  write_first_ = false;
}

}  // namespace ndpgen::hwsim
