#include "hwsim/tuple_buffer.hpp"

#include "support/error.hpp"

namespace ndpgen::hwsim {

Tuple pad_tuple(const analysis::TupleLayout& layout, const Tuple& storage) {
  NDPGEN_CHECK_ARG(storage.width() == layout.storage_bits,
                   "storage tuple width mismatch");
  Tuple padded(layout.padded_bits);
  for (const auto& field : layout.fields) {
    padded.deposit(field.padded_offset_bits,
                   storage.slice(field.storage_offset_bits,
                                 field.storage_width_bits));
  }
  return padded;
}

Tuple unpad_tuple(const analysis::TupleLayout& layout, const Tuple& padded) {
  NDPGEN_CHECK_ARG(padded.width() == layout.padded_bits,
                   "padded tuple width mismatch");
  Tuple storage(layout.storage_bits);
  for (const auto& field : layout.fields) {
    storage.deposit(field.storage_offset_bits,
                    padded.slice(field.padded_offset_bits,
                                 field.storage_width_bits));
  }
  return storage;
}

SimTupleInputBuffer::SimTupleInputBuffer(std::string name,
                                         const analysis::TupleLayout& layout,
                                         Stream<std::uint64_t>* in,
                                         Stream<Tuple>* out)
    : Module(std::move(name)), layout_(layout), in_(in), out_(out) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "tuple buffer needs both streams");
}

void SimTupleInputBuffer::start(std::uint64_t payload_bits) {
  pending_ = support::BitVector();
  payload_bits_remaining_ = payload_bits;
  tuples_produced_ = 0;
}

void SimTupleInputBuffer::cycle(std::uint64_t /*now*/) {
  // Accept at most one word per cycle (64-bit datapath).
  if (in_->can_pop() &&
      pending_.width() < layout_.storage_bits + 64) {
    const std::uint64_t word = in_->pop();
    if (payload_bits_remaining_ == 0) {
      // Slack/padding words (static-mode block remainder): discard.
    } else {
      const std::uint64_t take = std::min<std::uint64_t>(
          64, payload_bits_remaining_);
      support::BitVector bits = support::BitVector::from_u64(word, 64);
      bits.resize(take);
      pending_.append(bits);
      payload_bits_remaining_ -= take;
    }
  }
  // Emit at most one tuple per cycle.
  if (pending_.width() >= layout_.storage_bits && out_->can_push()) {
    const Tuple storage = pending_.slice(0, layout_.storage_bits);
    pending_ = pending_.width() == layout_.storage_bits
                   ? support::BitVector()
                   : pending_.slice(layout_.storage_bits,
                                    pending_.width() - layout_.storage_bits);
    out_->push(pad_tuple(layout_, storage));
    ++tuples_produced_;
  }
  // Trailing bits shorter than one tuple are dropped once the payload is
  // fully consumed (they cannot form a complete tuple).
  if (payload_bits_remaining_ == 0 &&
      pending_.width() < layout_.storage_bits) {
    pending_ = support::BitVector();
  }
}

void SimTupleInputBuffer::reset() {
  pending_ = support::BitVector();
  payload_bits_remaining_ = 0;
  tuples_produced_ = 0;
}

bool SimTupleInputBuffer::idle() const noexcept {
  return payload_bits_remaining_ == 0 &&
         pending_.width() < layout_.storage_bits;
}

SimTupleOutputBuffer::SimTupleOutputBuffer(std::string name,
                                           const analysis::TupleLayout& layout,
                                           Stream<Tuple>* in,
                                           Stream<std::uint64_t>* out)
    : Module(std::move(name)), layout_(layout), in_(in), out_(out) {
  NDPGEN_CHECK_ARG(in != nullptr && out != nullptr,
                   "tuple buffer needs both streams");
}

void SimTupleOutputBuffer::start() {
  pending_ = support::BitVector();
  upstream_done_ = false;
  payload_bits_ = 0;
  tuples_consumed_ = 0;
}

void SimTupleOutputBuffer::cycle(std::uint64_t /*now*/) {
  // Accept one tuple per cycle when buffer space allows.
  if (in_->can_pop() && pending_.width() < 64 + layout_.storage_bits) {
    const Tuple padded = in_->pop();
    pending_.append(unpad_tuple(layout_, padded));
    payload_bits_ += layout_.storage_bits;
    ++tuples_consumed_;
  }
  // Emit one word per cycle.
  if (out_->can_push()) {
    if (pending_.width() >= 64) {
      out_->push(pending_.extract_u64(0, 64));
      pending_ = pending_.slice(64, pending_.width() - 64);
    } else if (upstream_done_ && pending_.width() > 0 && !in_->can_pop()) {
      // Final partial word, zero-padded.
      out_->push(pending_.extract_u64(0, pending_.width()));
      pending_ = support::BitVector();
    }
  }
}

void SimTupleOutputBuffer::reset() {
  pending_ = support::BitVector();
  upstream_done_ = false;
  payload_bits_ = 0;
  tuples_consumed_ = 0;
}

bool SimTupleOutputBuffer::idle() const noexcept {
  return pending_.width() == 0;
}

}  // namespace ndpgen::hwsim
