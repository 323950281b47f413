// Simulated Tuple Buffers (accessor component, Fig. 3.c).
//
// The input buffer groups the 64-bit word stream into packed tuples and
// splits each into the padded field vector (+ carried string postfixes)
// according to the contextual-analysis layout; the output buffer reverses
// the transformation. These modules do real bit manipulation — the data
// semantics of the simulated PE are exact, not modeled.
#pragma once

#include <cstdint>

#include "analysis/layout.hpp"
#include "hwsim/kernel.hpp"
#include "hwsim/stream.hpp"
#include "support/bitvec.hpp"

namespace ndpgen::hwsim {

using Tuple = support::BitVector;

/// Packs a storage-layout tuple into the padded processing representation.
[[nodiscard]] Tuple pad_tuple(const analysis::TupleLayout& layout,
                              const Tuple& storage);

/// Inverse of pad_tuple.
[[nodiscard]] Tuple unpad_tuple(const analysis::TupleLayout& layout,
                                const Tuple& padded);

class SimTupleInputBuffer final : public Module {
 public:
  SimTupleInputBuffer(std::string name, const analysis::TupleLayout& layout,
                      Stream<std::uint64_t>* in, Stream<Tuple>* out);

  /// Declares how many payload bits of the upcoming run carry valid
  /// tuples; trailing slack (partial tuples, static-mode padding) is
  /// consumed but discarded.
  void start(std::uint64_t payload_bits);

  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override;

  [[nodiscard]] std::uint64_t tuples_produced() const noexcept {
    return tuples_produced_;
  }

 private:
  friend class FastChunkEngine;

  const analysis::TupleLayout& layout_;
  Stream<std::uint64_t>* in_;
  Stream<Tuple>* out_;

  support::BitVector pending_;
  std::uint64_t payload_bits_remaining_ = 0;
  std::uint64_t tuples_produced_ = 0;
};

class SimTupleOutputBuffer final : public Module {
 public:
  SimTupleOutputBuffer(std::string name, const analysis::TupleLayout& layout,
                       Stream<Tuple>* in, Stream<std::uint64_t>* out);

  void start();

  /// Signals that no further tuples will arrive; remaining bits are
  /// flushed as a final zero-padded word.
  void set_upstream_done(bool done) noexcept { upstream_done_ = done; }

  void cycle(std::uint64_t now) override;
  void reset() override;
  [[nodiscard]] bool idle() const noexcept override;

  /// Valid payload bytes emitted (before word-alignment padding).
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bits_ / 8;
  }
  [[nodiscard]] std::uint64_t tuples_consumed() const noexcept {
    return tuples_consumed_;
  }

  /// True once all accepted tuples have been emitted as words.
  [[nodiscard]] bool drained() const noexcept {
    return upstream_done_ && pending_.width() == 0;
  }

 private:
  friend class FastChunkEngine;

  const analysis::TupleLayout& layout_;
  Stream<Tuple>* in_;
  Stream<std::uint64_t>* out_;

  support::BitVector pending_;
  bool upstream_done_ = false;
  std::uint64_t payload_bits_ = 0;
  std::uint64_t tuples_consumed_ = 0;
};

}  // namespace ndpgen::hwsim
