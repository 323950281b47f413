#include "hwsim/store_unit.hpp"

#include "hwgen/pe_platform.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

SimStoreUnit::SimStoreUnit(std::string name, AxiWriteChannel* channel,
                           Stream<std::uint64_t>* in, std::uint32_t chunk_bytes,
                           bool configurable)
    : Module(std::move(name)),
      channel_(channel),
      in_(in),
      chunk_bytes_(chunk_bytes),
      configurable_(configurable) {
  NDPGEN_CHECK_ARG(channel != nullptr && in != nullptr,
                   "store unit needs a channel and an input stream");
  NDPGEN_CHECK_ARG(chunk_bytes % 8 == 0, "chunk size must be word aligned");
}

void SimStoreUnit::start(std::uint64_t addr) {
  addr_ = addr;
  payload_bytes_ = 0;
  bytes_transferred_ = 0;
  upstream_done_ = false;
  started_ = true;
}

void SimStoreUnit::cycle(std::uint64_t /*now*/) {
  if (!started_) return;
  // Drain payload words (one per cycle).
  if (in_->can_pop() && channel_->pending_requests() < hwgen::kIssueWindow) {
    channel_->request(addr_ + bytes_transferred_, in_->pop());
    payload_bytes_ += 8;
    bytes_transferred_ += 8;
    return;
  }
  // Static baseline: pad the block up to the full chunk size once the
  // payload is exhausted ("fully static units that always load and store
  // complete data blocks").
  if (!configurable_ && upstream_done_ && !in_->can_pop() &&
      bytes_transferred_ < chunk_bytes_ &&
      channel_->pending_requests() < hwgen::kIssueWindow) {
    channel_->request(addr_ + bytes_transferred_, 0);
    bytes_transferred_ += 8;
  }
}

void SimStoreUnit::reset() {
  addr_ = 0;
  payload_bytes_ = 0;
  bytes_transferred_ = 0;
  upstream_done_ = false;
  started_ = false;
}

bool SimStoreUnit::done() const noexcept {
  if (!started_ || !upstream_done_ || !in_->empty()) return false;
  if (!configurable_ && bytes_transferred_ < chunk_bytes_) return false;
  return true;
}

bool SimStoreUnit::idle() const noexcept { return done() || !started_; }

}  // namespace ndpgen::hwsim
