#include "hwsim/memport.hpp"

#include "support/error.hpp"

namespace ndpgen::hwsim {

SimMemory::SimMemory(std::size_t bytes) : data_(bytes, 0) {
  NDPGEN_CHECK_ARG(bytes > 0, "memory size must be > 0");
}

std::uint64_t SimMemory::read_u64(std::uint64_t addr) const {
  NDPGEN_CHECK_ARG(addr + 8 <= data_.size(), "DRAM read out of bounds");
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(data_[addr + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  return value;
}

void SimMemory::write_u64(std::uint64_t addr, std::uint64_t value) {
  NDPGEN_CHECK_ARG(addr + 8 <= data_.size(), "DRAM write out of bounds");
  for (int i = 0; i < 8; ++i) {
    data_[addr + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

std::span<const std::uint8_t> SimMemory::read_bytes(std::uint64_t addr,
                                                    std::size_t length) const {
  NDPGEN_CHECK_ARG(addr + length <= data_.size(), "DRAM read out of bounds");
  return std::span<const std::uint8_t>(data_.data() + addr, length);
}

void SimMemory::write_bytes(std::uint64_t addr,
                            std::span<const std::uint8_t> bytes) {
  NDPGEN_CHECK_ARG(addr + bytes.size() <= data_.size(),
                   "DRAM write out of bounds");
  std::copy(bytes.begin(), bytes.end(), data_.begin() + static_cast<std::ptrdiff_t>(addr));
}

void SimMemory::fill(std::uint8_t value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

void AxiPort::request_read(std::uint64_t addr, std::uint32_t beats) {
  for (std::uint32_t i = 0; i < beats; ++i) {
    read_queue_.push_back(ReadRequest{addr + std::uint64_t{i} * 8});
  }
}

bool AxiPort::read_data_available(std::uint64_t now) const noexcept {
  return !responses_.empty() && responses_.front().ready_at <= now;
}

std::uint64_t AxiPort::pop_read_data(std::uint64_t now) {
  NDPGEN_CHECK(read_data_available(now), "no read data on port " + name_);
  const std::uint64_t data = responses_.front().data;
  responses_.pop_front();
  return data;
}

void AxiPort::request_write(std::uint64_t addr, std::uint64_t data) {
  write_queue_.push_back(WriteRequest{addr, data});
}

bool AxiPort::idle() const noexcept {
  return read_queue_.empty() && write_queue_.empty() && responses_.empty();
}

AxiInterconnect::AxiInterconnect(SimMemory& memory, Config config)
    : Module("axi_interconnect"), memory_(memory), config_(config) {
  NDPGEN_CHECK_ARG(config.beats_per_cycle >= 1, "need >= 1 beat per cycle");
}

AxiPort* AxiInterconnect::create_port(std::string name) {
  ports_.push_back(std::unique_ptr<AxiPort>(new AxiPort(std::move(name))));
  return ports_.back().get();
}

void AxiInterconnect::cycle(std::uint64_t now) {
  if (ports_.empty()) return;
  std::uint32_t granted = 0;
  bool demand_left = false;
  // Round-robin across ports, one beat per grant.
  const std::size_t num_ports = ports_.size();
  std::size_t inspected = 0;
  std::size_t cursor = rr_cursor_;
  while (granted < config_.beats_per_cycle && inspected < num_ports) {
    AxiPort& port = *ports_[cursor];
    bool granted_this_port = false;
    if (!port.read_queue_.empty() &&
        port.responses_.size() < config_.max_outstanding) {
      const auto request = port.read_queue_.front();
      port.read_queue_.pop_front();
      port.responses_.push_back(AxiPort::ReadResponse{
          now + config_.read_latency, memory_.read_u64(request.addr)});
      ++port.read_beats_;
      granted_this_port = true;
    } else if (!port.write_queue_.empty()) {
      const auto request = port.write_queue_.front();
      port.write_queue_.pop_front();
      memory_.write_u64(request.addr, request.data);
      ++port.write_beats_;
      granted_this_port = true;
    }
    if (granted_this_port) {
      ++granted;
      ++total_beats_;
      // A port that got a grant is revisited only after the others.
      inspected = 0;
    } else {
      ++inspected;
    }
    cursor = (cursor + 1) % num_ports;
  }
  rr_cursor_ = cursor;
  for (const auto& port : ports_) {
    if (!port->read_queue_.empty() || !port->write_queue_.empty()) {
      demand_left = true;
      break;
    }
  }
  if (demand_left && granted == config_.beats_per_cycle) {
    ++contended_cycles_;
  }
}

void AxiInterconnect::reset() {
  for (auto& port : ports_) {
    port->read_queue_.clear();
    port->write_queue_.clear();
    port->responses_.clear();
    port->read_beats_ = 0;
    port->write_beats_ = 0;
  }
  total_beats_ = 0;
  contended_cycles_ = 0;
  rr_cursor_ = 0;
}

bool AxiInterconnect::idle() const noexcept {
  for (const auto& port : ports_) {
    if (!port->idle()) return false;
  }
  return true;
}

}  // namespace ndpgen::hwsim
