#include "hwsim/load_unit.hpp"

#include "hwgen/pe_platform.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

SimLoadUnit::SimLoadUnit(std::string name, AxiReadChannel* channel,
                         Stream<std::uint64_t>* out, std::uint32_t chunk_bytes,
                         bool configurable)
    : Module(std::move(name)),
      channel_(channel),
      out_(out),
      chunk_bytes_(chunk_bytes),
      configurable_(configurable) {
  NDPGEN_CHECK_ARG(channel != nullptr && out != nullptr,
                   "load unit needs a channel and an output stream");
  NDPGEN_CHECK_ARG(chunk_bytes % 8 == 0, "chunk size must be word aligned");
}

void SimLoadUnit::start(std::uint64_t addr, std::uint32_t bytes) {
  NDPGEN_CHECK_ARG(bytes <= chunk_bytes_,
                   "load larger than the configured chunk size");
  // The static baseline ignores the size and always moves a full block.
  const std::uint32_t effective = configurable_ ? bytes : chunk_bytes_;
  addr_ = addr;
  payload_bytes_ = bytes;
  words_total_ = (effective + 7) / 8;
  words_requested_ = 0;
  words_pushed_ = 0;
}

void SimLoadUnit::cycle(std::uint64_t now) {
  // Issue new beats while the window allows.
  while (words_requested_ < words_total_ &&
         channel_->pending_requests() < hwgen::kIssueWindow) {
    channel_->request(addr_ + std::uint64_t{words_requested_} * 8, 1);
    ++words_requested_;
  }
  // Forward returned data downstream (one word per cycle).
  if (words_pushed_ < words_total_ && channel_->data_available(now) &&
      out_->can_push()) {
    out_->push(channel_->pop_data(now));
    ++words_pushed_;
  }
}

void SimLoadUnit::reset() {
  words_total_ = 0;
  words_requested_ = 0;
  words_pushed_ = 0;
  payload_bytes_ = 0;
  addr_ = 0;
}

bool SimLoadUnit::idle() const noexcept { return done(); }

}  // namespace ndpgen::hwsim
