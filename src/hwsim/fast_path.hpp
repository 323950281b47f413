// Fused analytic replay of one PE chunk run (fast sim mode).
//
// The elastic-pipeline semantics of a chunk run are fully determined by
// integer occupancy state: which tuple passes which filter stage depends
// only on the payload bytes, and *when* each module moves depends only
// on FIFO occupancies, the AXI round-robin state and the read latency.
// FastChunkEngine exploits this: it precomputes every data decision
// (filter pass/drop, aggregate folds, transformed output bytes) from the
// payload bytes in DRAM through the parser's record plan, then replays
// the cycle-by-cycle timing with plain integer counters instead of
// ticking module objects and moving BitVectors through deques. The replay
// is cycle-exact by construction, so the write-back phase can synthesize
// the very same stats, counters, stream transfer/high-water marks,
// registers, metrics and trace events the tick loop would have produced —
// byte-identical, at a fraction of the wall-clock cost.
//
// The replay ticks each distinct tuple span only once per PE. The state
// after the start tick, and the state at every tick where the input
// buffer pushes a tuple, is a node of a span automaton that the PE keeps
// from chunk to chunk; the ticks up to the next node (or to the finish
// tick) are an edge labelled with the filter decisions they consume. An
// edge whose label matches the next decisions replays as its counter
// deltas: mid-chunk as long as the load unit keeps words to request and
// push and some payload stays unread, and near the chunk's bounds from
// the exact remaining counts it was ticked at. A warm PE ticks only the
// spans it has not seen.
//
// Structural-event boundaries drop back to the cycle-exact path: a
// module added to the bench kernel after the PE, in-flight state at
// chunk start, a mid-chunk watchdog trip or deadlock horizon, invalid
// register programming, or an out-of-bounds DRAM window all make run()
// return false without mutating anything, and the caller re-runs the
// chunk through SimKernel::run_until so every raise/fault behavior is
// bit-preserved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace ndpgen::hwsim {

class SimulatedPE;
class SpanAutomaton;

/// What the fused replay remembers about one PE between chunks: one span
/// automaton per setting of the run constants its ticks read (whether the
/// aggregate unit folds, and the kernel's watchdog horizon). The PE owns
/// it, so it lives and dies with the PE and never leaves the PE's thread.
class SpanMemo {
 public:
  SpanMemo();
  ~SpanMemo();
  SpanMemo(const SpanMemo&) = delete;
  SpanMemo& operator=(const SpanMemo&) = delete;

  /// Nodes and edges held over all automata.
  [[nodiscard]] std::size_t nodes() const noexcept;
  [[nodiscard]] std::size_t edges() const noexcept;

 private:
  friend class FastChunkEngine;

  /// The automaton for one setting, made on first use.
  SpanAutomaton& automaton(bool folds, std::uint64_t watchdog,
                           std::size_t stages, bool pads);

  struct Entry {
    bool folds;
    std::uint64_t watchdog;
    std::unique_ptr<SpanAutomaton> spans;
  };
  std::vector<Entry> automata_;
};

class FastChunkEngine {
 public:
  /// Attempts to run the chunk started on `pe` (START written, run not
  /// yet begun) to completion analytically on its bench's kernel. Returns
  /// true when the fast path applied; false means nothing but the PE's
  /// span memo was touched and the caller must fall back to the
  /// cycle-exact run_until loop.
  static bool run(SimulatedPE& pe, std::uint64_t max_cycles);
};

}  // namespace ndpgen::hwsim
