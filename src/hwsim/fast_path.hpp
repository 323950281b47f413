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
// The replay ticks each distinct tuple span only once per chunk. At every
// tick where the input buffer pushes a tuple, the replay's non-counter
// state (queue and FIFO occupancies, response ready times relative to
// now, the round-robin bit, the buffers' pending bits, the drain latches)
// is a node of a per-call span automaton, and the ticks up to the next
// such tick are an edge labelled with the filter decisions they consume.
// An edge whose label matches the next decisions replays as its counter
// deltas, as long as the load unit keeps words to request and push and
// some payload stays unread. Every other tick is ticked one cycle at a
// time: unseen spans, the read ramp, the tail after the last word request
// and the static baseline's zero-pad drain.
//
// Structural-event boundaries drop back to the cycle-exact path: a
// module added to the bench kernel after the PE, in-flight state at
// chunk start, a mid-chunk watchdog trip or deadlock horizon, invalid
// register programming, or an out-of-bounds DRAM window all make run()
// return false without mutating anything, and the caller re-runs the
// chunk through SimKernel::run_until so every raise/fault behavior is
// bit-preserved.
#pragma once

#include <cstdint>

namespace ndpgen::hwsim {

class SimulatedPE;

class FastChunkEngine {
 public:
  /// Attempts to run the chunk started on `pe` (START written, run not
  /// yet begun) to completion analytically on its bench's kernel. Returns
  /// true when the fast path applied; false means nothing was touched and
  /// the caller must fall back to the cycle-exact run_until loop.
  static bool run(SimulatedPE& pe, std::uint64_t max_cycles);
};

}  // namespace ndpgen::hwsim
