#include "hwsim/fast_path.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "hwgen/pe_platform.hpp"
#include "hwsim/aggregate_unit.hpp"
#include "hwsim/filter_stage.hpp"
#include "hwsim/load_unit.hpp"
#include "hwsim/memport.hpp"
#include "hwsim/pe_sim.hpp"
#include "hwsim/store_unit.hpp"
#include "hwsim/tuple_buffer.hpp"
#include "support/bitvec.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {

namespace hw = ndpgen::hwgen;

namespace {

/// Occupancy-only mirror of Stream<T>: reproduces can_push/can_pop
/// visibility, the two-phase commit and transfer counting without moving
/// any values. High-water marks are kept per span (see SpanAutomaton).
struct ModelStream {
  std::uint32_t depth = 0;
  std::uint32_t vis = 0;     ///< queue_.size(): visible to the consumer.
  std::uint32_t staged = 0;  ///< staged_.size(): pushed this cycle.
  std::uint64_t pushes = 0;  ///< Committed transfers.
  std::uint32_t peak = 0;    ///< Highest occupancy in the current span.

  [[nodiscard]] bool can_push() const noexcept {
    return vis + staged < depth;
  }
  void push() noexcept {
    ++staged;
    if (vis + staged > peak) peak = vis + staged;
  }
  /// End-of-tick commit; returns the number of transfers that moved.
  std::uint32_t commit() noexcept {
    const std::uint32_t moved = staged;
    vis += staged;
    pushes += staged;
    staged = 0;
    return moved;
  }
  [[nodiscard]] bool empty() const noexcept {
    return vis == 0 && staged == 0;
  }
};

}  // namespace

/// The timing replay's memo of tuple spans, kept by the PE from chunk to
/// chunk (SpanMemo holds one per setting of the run constants the ticks
/// read: whether the aggregate unit folds, and the watchdog horizon).
///
/// A node is the replay's non-counter state at the end of the start tick
/// or of a tick in which the input buffer pushed a tuple; an edge is the
/// span ticked from one node to the next, or from the last node to the
/// finish tick (a finish node, which has no edges out). From a node, the
/// ticks that follow depend only on that state, on the filter decisions
/// the stages consume (the edge's label) and on the counter tests of the
/// load unit, the input buffer and the static store unit's padding. Every
/// such test reads a remaining count: words to request, words to push,
/// payload bits unread, and (static designs only) bytes stored.
///
/// Mid-chunk a node is keyed on the state alone and an edge to another
/// such node replays while the span's tests cannot flip (its guards).
/// Once a test has flipped (a near node: every word requested, every word
/// pushed or the payload read), the node is keyed on the exact remaining
/// counts too, and an edge that ends at a near or finish node replays only
/// from the remaining counts it was ticked at. So a warm PE replays the
/// read ramp, the tail and the drain to the finish tick as well.
///
/// An edge may replay in a later chunk, or after a kernel reset, than the
/// one it was ticked in, so it carries the peak occupancy each stream
/// reaches during the span, and a replay raises the run's high-water marks
/// to it. Counters travel as one flat list. The guards and labels read
/// only the head slots below (through kPos + stages); the tail follows.
class SpanAutomaton {
 public:
  static constexpr std::size_t kNow = 0;
  static constexpr std::size_t kRequested = 1;  ///< Words requested.
  static constexpr std::size_t kPushed = 2;     ///< Words pushed.
  static constexpr std::size_t kPayloadRem = 3;
  static constexpr std::size_t kStored = 4;  ///< Bytes the store wrote.
  static constexpr std::size_t kPos = 5;  ///< One decision cursor per stage.

  /// The memory bound: an automaton past it at the start of a run is
  /// cleared, so it never holds more than this plus one chunk's spans.
  static constexpr std::size_t kMaxNodes = 4096;
  static constexpr std::size_t kMaxEdges = 4 * kMaxNodes;

  /// `pads`: the store unit pads each block to the chunk size (a static
  /// baseline), so the bytes stored are a remaining count too.
  SpanAutomaton(std::size_t stages, bool pads)
      : head_(kPos + stages), pads_(pads) {}

  /// Binds the automaton to one run's decisions and word count.
  void bind(const std::vector<std::vector<std::uint8_t>>& stage_pass,
            std::uint64_t words_total) {
    if (nodes_.size() > kMaxNodes || edges_.size() > kMaxEdges) {
      ids_.clear();
      nodes_.clear();
      edges_.clear();
    }
    stage_pass_ = &stage_pass;
    words_total_ = words_total;
  }

  /// The id of the node with state `key` reached with `counters`, added on
  /// first sight. Appends the remaining counts to `key` at a near node.
  std::uint32_t node(std::vector<std::uint64_t>& key,
                     const std::vector<std::uint64_t>& counters,
                     bool finish) {
    const bool near = !far(counters.data());
    key.push_back(finish ? 2 : near ? 1 : 0);
    if (near) {
      const Remaining rem = remaining(counters.data());
      key.insert(key.end(), rem.begin(), rem.end());
    }
    const auto [it, added] =
        ids_.try_emplace(key, static_cast<std::uint32_t>(nodes_.size()));
    if (added) nodes_.push_back(Node{&it->first, {}, finish});
    return it->second;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& key(std::uint32_t id) const {
    return *nodes_[id].key;
  }
  /// True for a finish node: the state at the run's finish tick.
  [[nodiscard]] bool finish(std::uint32_t id) const {
    return nodes_[id].finish;
  }

  /// Records the span ticked from node `from` (counters `before`) to node
  /// `to` (counters `after`), in which stream j peaked at `peak[j]`,
  /// unless the same span is already an edge.
  void add_edge(std::uint32_t from, std::uint32_t to,
                const std::vector<std::uint64_t>& before,
                const std::vector<std::uint64_t>& after,
                const std::vector<std::uint32_t>& peak) {
    Edge edge{to, !far(after.data()), remaining(before.data()),
              std::vector<std::uint64_t>(after.size()), {}, peak, 0};
    for (std::size_t i = 0; i < after.size(); ++i) {
      edge.delta[i] = after[i] - before[i];  // mod 2^64: payload shrinks
    }
    for (std::size_t s = 0; s < stage_pass_->size(); ++s) {
      const auto first = (*stage_pass_)[s].begin();
      edge.label.insert(edge.label.end(),
                        first + static_cast<std::ptrdiff_t>(before[kPos + s]),
                        first + static_cast<std::ptrdiff_t>(after[kPos + s]));
    }
    for (const std::uint32_t e : nodes_[from].out) {
      const Edge& seen = edges_[e];
      if (seen.to == to && seen.exact == edge.exact &&
          (!edge.exact || seen.from == edge.from) &&
          seen.label == edge.label && seen.delta == edge.delta) {
        return;
      }
    }
    nodes_[from].out.push_back(static_cast<std::uint32_t>(edges_.size()));
    edges_.push_back(std::move(edge));
  }

  /// Follows replayable edges from node `id`, adding their deltas to
  /// `counters` and raising `high_water` to their stream peaks; returns
  /// the node reached. Each step advances only the head slots; the tail
  /// and the marks get each edge's deltas times its uses at the end. A
  /// self-loop replays as a run: one step takes it as many times in a row
  /// as its guards and the next decisions allow.
  std::uint32_t walk(std::uint32_t id, std::vector<std::uint64_t>& counters,
                     std::vector<std::uint32_t>& high_water) {
    std::uint64_t* c = counters.data();
    while (true) {
      Edge* next = nullptr;
      for (const std::uint32_t e : nodes_[id].out) {
        if (replays(edges_[e], c)) {
          next = &edges_[e];
          break;
        }
      }
      if (next == nullptr) break;
      const std::uint64_t k =
          next->to == id && !next->exact ? run_length(*next, c) : 1;
      for (std::size_t i = 0; i < head_; ++i) c[i] += k * next->delta[i];
      if (next->uses == 0) used_.push_back(next);
      next->uses += k;
      id = next->to;
    }
    for (Edge* edge : used_) {
      for (std::size_t i = head_; i < counters.size(); ++i) {
        c[i] += edge->uses * edge->delta[i];
      }
      for (std::size_t j = 0; j < high_water.size(); ++j) {
        high_water[j] = std::max(high_water[j], edge->peak[j]);
      }
      edge->uses = 0;
    }
    used_.clear();
    return id;
  }

  [[nodiscard]] std::size_t nodes() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t edges() const noexcept { return edges_.size(); }

 private:
  static constexpr std::size_t kRemaining = 4;
  /// Words to request, words to push, payload bits unread, bytes stored
  /// (0 unless the design pads).
  using Remaining = std::array<std::uint64_t, kRemaining>;

  struct Node {
    const std::vector<std::uint64_t>* key;  ///< Owned by ids_.
    std::vector<std::uint32_t> out;         ///< Edge ids.
    bool finish;
  };
  struct Edge {
    std::uint32_t to;
    bool exact;      ///< Ends at a near or finish node.
    Remaining from;  ///< Remaining counts it starts at (if exact).
    std::vector<std::uint64_t> delta;  ///< Per counter slot.
    std::vector<std::uint8_t> label;   ///< Decisions consumed, by stage.
    std::vector<std::uint32_t> peak;   ///< Highest occupancy per stream.
    std::uint64_t uses;                ///< Steps in the current walk.
  };

  /// True while every counter test reads as mid-chunk: the load unit has
  /// words to request and to push, and some payload is unread.
  [[nodiscard]] bool far(const std::uint64_t* c) const noexcept {
    return c[kRequested] < words_total_ && c[kPushed] < words_total_ &&
           c[kPayloadRem] > 0;
  }
  [[nodiscard]] Remaining remaining(const std::uint64_t* c) const noexcept {
    return {words_total_ - c[kRequested], words_total_ - c[kPushed],
            c[kPayloadRem], pads_ ? c[kStored] : 0};
  }

  /// True when ticking from the current state would repeat `edge`: its
  /// counter tests read as when it was ticked, and the stages' next
  /// decisions equal its label. An edge between mid-chunk nodes needs
  /// only that no test flips: the load unit keeps words to request and
  /// push, every payload take stays a full word. Any other edge needs the
  /// remaining counts it was ticked at. The watchdog needs no guard: the
  /// automaton is per horizon, and a node is the start tick or a tick
  /// that moved a tuple, so the stall count at each tick of a span is the
  /// one it had when ticked. Nor does the deadline: a walk that passes it
  /// declines the chunk at the next loop-top check or at the finish.
  [[nodiscard]] bool replays(const Edge& edge, const std::uint64_t* c) const {
    const std::uint64_t* d = edge.delta.data();
    if (edge.exact) {
      if (remaining(c) != edge.from) return false;
    } else if (c[kRequested] + d[kRequested] >= words_total_ ||
               c[kPushed] + d[kPushed] >= words_total_ ||
               c[kPayloadRem] <= 0 - d[kPayloadRem]) {
      return false;
    }
    const std::uint8_t* label = edge.label.data();
    for (std::size_t s = 0; s < stage_pass_->size(); ++s) {
      const std::vector<std::uint8_t>& pass = (*stage_pass_)[s];
      const std::uint64_t at = c[kPos + s];
      const std::uint64_t n = d[kPos + s];
      if (n > pass.size() - at) return false;
      const std::uint8_t* next = pass.data() + at;
      for (std::uint64_t i = 0; i < n; ++i) {
        if (label[i] != next[i]) return false;
      }
      label += n;
    }
    return true;
  }

  /// How many times in a row the self-loop `edge`, which replays from
  /// `c`, replays: the largest k for which all k steps pass replays().
  /// Step j (from 1) sees the head counters plus (j - 1) deltas, so the
  /// word guards hold through step k when c + k * d < words_total, the
  /// payload guard when c[kPayloadRem] > k * taken, and the labels when
  /// each stage's next k * n decisions repeat the edge's n. The labels out
  /// of one node are prefix-free, so no other edge could have replayed at
  /// any of these steps: the run is exactly the steps walk() would take.
  [[nodiscard]] std::uint64_t run_length(const Edge& edge,
                                         const std::uint64_t* c) const {
    const std::uint64_t* d = edge.delta.data();
    std::uint64_t k = ~std::uint64_t{0};
    for (const std::size_t slot : {kRequested, kPushed}) {
      if (d[slot] > 0) k = std::min(k, (words_total_ - 1 - c[slot]) / d[slot]);
    }
    if (const std::uint64_t taken = 0 - d[kPayloadRem]; taken > 0) {
      k = std::min(k, (c[kPayloadRem] - 1) / taken);
    }
    for (std::size_t s = 0; s < stage_pass_->size(); ++s) {
      const std::uint64_t n = d[kPos + s];
      if (n == 0) continue;
      const std::vector<std::uint8_t>& pass = (*stage_pass_)[s];
      const std::uint8_t* next = pass.data() + c[kPos + s];
      const std::uint64_t limit =
          std::min(k, (pass.size() - c[kPos + s]) / n) * n;
      // replays() matched the first n; each later decision must equal the
      // one a period before it.
      std::uint64_t i = n;
      while (i < limit && next[i] == next[i - n]) ++i;
      k = i / n;
    }
    // A loop that moves no guard at all would replay forever; walk() steps
    // it one at a time, as before.
    return k == ~std::uint64_t{0} ? 1 : k;
  }

  std::size_t head_;
  bool pads_;
  const std::vector<std::vector<std::uint8_t>>* stage_pass_ = nullptr;
  std::uint64_t words_total_ = 0;
  std::map<std::vector<std::uint64_t>, std::uint32_t> ids_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<Edge*> used_;  ///< Edges the current walk has taken.
};

SpanMemo::SpanMemo() = default;
SpanMemo::~SpanMemo() = default;

std::size_t SpanMemo::nodes() const noexcept {
  std::size_t n = 0;
  for (const Entry& entry : automata_) n += entry.spans->nodes();
  return n;
}

std::size_t SpanMemo::edges() const noexcept {
  std::size_t n = 0;
  for (const Entry& entry : automata_) n += entry.spans->edges();
  return n;
}

SpanAutomaton& SpanMemo::automaton(bool folds, std::uint64_t watchdog,
                                   std::size_t stages, bool pads) {
  for (const Entry& entry : automata_) {
    if (entry.folds == folds && entry.watchdog == watchdog) {
      return *entry.spans;
    }
  }
  automata_.push_back(
      Entry{folds, watchdog, std::make_unique<SpanAutomaton>(stages, pads)});
  return *automata_.back().spans;
}

bool FastChunkEngine::run(SimulatedPE& pe, std::uint64_t max_cycles) {
  // ============ Phase 1: structural eligibility (no mutation) ==========
  //
  // Every check that fails here is a structural-event boundary: the
  // caller falls back to the cycle-exact run_until loop, which either
  // handles the situation tick by tick or raises the very error the
  // analytic replay cannot reproduce.
  if (!pe.start_pending_ || pe.running_) return false;
  SimKernel& kernel = *pe.kernel_;
  AxiInterconnect& axi = *pe.interconnect_;
  // The bench registers the interconnect, then the PE's modules, the
  // sequencer last. A module added after that (a test's fault hook) is a
  // structural boundary: exact mode ticks the chunk instead.
  if (kernel.modules_.back() != &pe) return false;
  if (!kernel.streams_empty() || !axi.idle()) return false;

  // Register programming prechecks mirror start_run()'s NDPGEN_CHECKs:
  // anything start_run would reject falls back so the exact path raises
  // the identical error. The registers were resolved when the PE was
  // built.
  const SimRegFile& regs = pe.regs_;
  const SimulatedPE::Registers& reg = pe.reg_;
  const bool configurable =
      pe.design_.flavor == hw::DesignFlavor::kGenerated;
  for (const RegSlot* slot : {&reg.in_addr_lo, &reg.in_addr_hi,
                              &reg.out_addr_lo, &reg.out_addr_hi}) {
    if (!slot->present()) return false;
  }
  if (configurable && !reg.in_size.present()) return false;

  const std::uint64_t src = regs.value64(reg.in_addr_lo, reg.in_addr_hi);
  const std::uint64_t dst = regs.value64(reg.out_addr_lo, reg.out_addr_hi);
  const std::uint32_t chunk = pe.design_.parser.chunk_size_bytes;
  const std::uint32_t in_size =
      configurable ? regs.value(reg.in_size)
                   : (pe.design_.static_payload_bytes != 0
                          ? pe.design_.static_payload_bytes
                          : chunk);
  if (in_size > chunk) return false;
  const std::uint32_t words_total = ((configurable ? in_size : chunk) + 7) / 8;

  const std::size_t num_stages = pe.stages_.size();
  struct StageCfg {
    std::uint32_t field = 0;
    std::uint32_t op = 0;
    std::uint64_t cmp = 0;
  };
  std::vector<StageCfg> cfg(num_stages);
  for (std::size_t i = 0; i < num_stages; ++i) {
    const SimulatedPE::Registers::Stage& stage = reg.stages[i];
    if (!stage.field.present() || !stage.op.present() ||
        !stage.value_lo.present() || !stage.value_hi.present()) {
      return false;
    }
    cfg[i].field = regs.value(stage.field);
    cfg[i].op = regs.value(stage.op);
    cfg[i].cmp = regs.value64(stage.value_lo, stage.value_hi);
    if (cfg[i].field >= pe.stages_[i]->fields_.size()) return false;
    if (pe.design_.operators.find_encoding(cfg[i].op) == nullptr) {
      return false;
    }
  }

  hw::AggOp agg_op = hw::AggOp::kNone;
  std::uint32_t agg_field = 0;
  if (pe.aggregate_ != nullptr) {
    if (!reg.agg_op.present() || !reg.agg_field.present()) return false;
    const std::uint32_t op_raw = regs.value(reg.agg_op);
    if (op_raw > static_cast<std::uint32_t>(hw::AggOp::kMax)) return false;
    agg_op = static_cast<hw::AggOp>(op_raw);
    agg_field = regs.value(reg.agg_field);
    if (agg_field >= pe.aggregate_->fields_.size()) return false;
  }

  const analysis::RecordPlan& plan = pe.design_.parser.plan;
  const std::uint32_t tuple_bytes = plan.input_bytes();
  const std::uint32_t out_tuple_bytes = plan.output_bytes();
  const std::uint32_t storage_bits = pe.design_.parser.input.storage_bits;
  const std::uint32_t out_storage_bits = pe.design_.parser.output.storage_bits;
  if (tuple_bytes == 0) return false;

  SimMemory& mem = axi.memory_;
  const std::uint64_t read_bytes = std::uint64_t{words_total} * 8;
  if (src + read_bytes < src || src + read_bytes > mem.size()) {
    return false;  // Exact path raises "DRAM read out of bounds".
  }

  // ======== Phase 2: data-plane precompute (still no mutation) =========
  //
  // Filter decisions and the output byte stream depend only on the
  // payload, never on timing, so they are evaluated in one pass per
  // stage: each stage's compare kernel, bound here once, reads its field
  // of the previous stage's survivors straight from the payload bytes;
  // survivors are projected through the parser's record plan.
  const std::uint64_t payload_bits = std::uint64_t{in_size} * 8;
  const std::span<const std::uint8_t> payload = mem.read_bytes(src, in_size);
  const auto record = [&](std::uint32_t id) {
    return payload.subspan(std::uint64_t{id} * tuple_bytes, tuple_bytes);
  };
  const std::uint64_t n_tuples = in_size / tuple_bytes;
  std::vector<std::vector<std::uint8_t>> stage_pass(num_stages);
  std::vector<std::uint32_t> survivors(n_tuples);
  std::vector<std::uint8_t> out_bytes;
  const bool agg_consumes =
      pe.aggregate_ != nullptr && agg_op != hw::AggOp::kNone;
  try {
    std::iota(survivors.begin(), survivors.end(), 0u);
    for (std::size_t s = 0; s < num_stages; ++s) {
      // The encoding resolved in the Phase-1 precheck.
      const hw::CompareKernel kernel(
          *pe.design_.operators.find_encoding(cfg[s].op),
          plan.fields()[cfg[s].field], cfg[s].cmp);
      stage_pass[s].resize(survivors.size());
      survivors.resize(kernel.filter(payload.data(), tuple_bytes,
                                     survivors.data(), survivors.size(),
                                     stage_pass[s].data(), survivors.data()));
    }

    if (!agg_consumes) {
      // The output buffer packs survivors back to back into whole words.
      out_bytes.assign(
          (std::uint64_t{out_tuple_bytes} * survivors.size() + 7) / 8 * 8, 0);
      std::uint64_t out_at = 0;
      for (const std::uint32_t id : survivors) {
        plan.project(record(id), std::span<std::uint8_t>(out_bytes).subspan(
                                     out_at, out_tuple_bytes));
        out_at += out_tuple_bytes;
      }
    }
  } catch (...) {
    return false;  // Anything start_run/the datapath would raise: exact.
  }

  const std::uint64_t n_payload_words = out_bytes.size() / 8;
  const std::uint64_t total_write_words =
      configurable ? n_payload_words
                   : std::max<std::uint64_t>(n_payload_words, chunk / 8);
  const std::uint64_t write_bytes = total_write_words * 8;
  if (dst + write_bytes < dst || dst + write_bytes > mem.size()) {
    return false;  // Exact path raises "DRAM write out of bounds".
  }
  // Exact mode interleaves grant-time reads and writes; if the windows
  // overlap, a later read could observe this run's own writes — which the
  // up-front payload snapshot cannot reproduce.
  if (read_bytes > 0 && write_bytes > 0 && src < dst + write_bytes &&
      dst < src + read_bytes) {
    return false;
  }

  // ================ Phase 3: integer-state timing replay ===============
  //
  // Replays the exact per-tick schedule — module evaluation order, stream
  // commit, classification — on plain counters. Any deadline or watchdog
  // horizon reached mid-replay aborts to the exact path, which re-runs
  // the chunk from the identical pre-run state and raises at the very
  // same virtual cycle. Spans the PE's span automaton already holds
  // replay from it instead of being ticked again; only the spans it has
  // not seen tick, one cycle at a time.
  const std::uint32_t bpc = axi.config_.beats_per_cycle;
  const std::uint32_t latency = axi.config_.read_latency;
  const std::uint32_t max_out = axi.config_.max_outstanding;
  const std::uint64_t wd = kernel.watchdog_cycles_;
  const std::uint64_t n0 = kernel.now_;

  // Model streams in one list: the word streams, then the tuple streams.
  const std::size_t num_tuple_streams = pe.tuple_streams_.size();
  std::vector<ModelStream> ms(2 + num_tuple_streams);
  ModelStream& wi = ms[0];
  ModelStream& wo = ms[1];
  ModelStream* const ts = ms.data() + 2;
  wi.depth = static_cast<std::uint32_t>(pe.words_in_->depth());
  wo.depth = static_cast<std::uint32_t>(pe.words_out_->depth());
  for (std::size_t j = 0; j < num_tuple_streams; ++j) {
    ts[j].depth = static_cast<std::uint32_t>(pe.tuple_streams_[j]->depth());
  }
  std::vector<std::uint32_t> high_water(ms.size(), 0);  // The run's marks.
  std::vector<std::uint32_t> span_peak(ms.size(), 0);
  const std::size_t agg_in = num_stages;            // ts index, if present.
  const std::size_t xform_in = num_stages + (pe.aggregate_ != nullptr ? 1 : 0);
  const std::size_t xform_out = xform_in + 1;

  // Load + read channel.
  std::uint64_t words_requested = 0;
  std::uint64_t words_pushed = 0;
  std::uint32_t rdq = 0;  // Read channel queue occupancy.
  std::vector<std::uint64_t> resp_ready(max_out);  // ready_at ring
  std::size_t resp_head = 0;
  std::size_t resp_cnt = 0;
  // Store + write channel.
  std::uint32_t wrq = 0;  // Write channel queue occupancy.
  std::uint64_t store_payload = 0;
  std::uint64_t store_bytes = 0;
  bool st_upstream_done = false;
  // Interconnect round-robin state.
  bool write_first = axi.write_first_;
  // Input buffer.
  std::uint64_t payload_rem = payload_bits;
  std::uint64_t ib_pending = 0;
  std::uint64_t tuples_produced = 0;
  // Filter stages.
  std::vector<std::uint64_t> pos(num_stages, 0);
  std::vector<std::uint64_t> pass_cnt(num_stages, 0);
  std::vector<std::uint64_t> drop_cnt(num_stages, 0);
  std::vector<std::uint64_t> stall_in(num_stages, 0);
  std::vector<std::uint64_t> stall_out(num_stages, 0);
  // Aggregate / output buffer.
  std::uint64_t agg_folded = 0;
  std::uint64_t ob_pending = 0;
  std::uint64_t ob_tuples = 0;
  bool ob_upstream_done = false;
  // Classification.
  std::uint64_t useful = 0;
  std::uint64_t stalled = 0;
  std::uint64_t transfers_acc = 0;
  std::uint64_t last_delta = 0;
  std::uint64_t stalled_since = n0;
  std::uint64_t now = n0;

  // Every counter a span advances, in SpanAutomaton's slot order.
  const auto for_each_counter = [&](auto&& f) {
    f(now);
    f(words_requested);
    f(words_pushed);
    f(payload_rem);
    f(store_bytes);
    for (std::uint64_t& p : pos) f(p);
    for (std::uint64_t* c :
         {&useful, &stalled, &transfers_acc, &tuples_produced, &agg_folded,
          &ob_tuples, &store_payload}) {
      f(*c);
    }
    for (ModelStream& m : ms) f(m.pushes);
    for (std::size_t s = 0; s < num_stages; ++s) {
      f(pass_cnt[s]);
      f(drop_cnt[s]);
      f(stall_in[s]);
      f(stall_out[s]);
    }
  };
  // A node's key: every other variable the tick loop reads (staged stream
  // entries are always zero between ticks), then the response ring's ready
  // times relative to `now`. Arrived responses all read as 0, since ticks
  // only ever ask whether one has arrived.
  const auto for_each_state = [&](auto&& f) {
    f(rdq);
    f(wrq);
    f(write_first);
    f(ib_pending);
    f(ob_pending);
    f(ob_upstream_done);
    f(st_upstream_done);
    for (ModelStream& m : ms) f(m.vis);
    f(resp_cnt);
  };
  const auto save_node = [&](std::vector<std::uint64_t>& key) {
    key.clear();
    for_each_state([&](const auto& v) {
      key.push_back(static_cast<std::uint64_t>(v));
    });
    for (std::size_t i = 0; i < resp_cnt; ++i) {
      std::size_t slot = resp_head + i;
      if (slot >= max_out) slot -= max_out;
      key.push_back(resp_ready[slot] > now ? resp_ready[slot] - now : 0);
    }
  };
  const auto load_node = [&](const std::vector<std::uint64_t>& key) {
    std::size_t k = 0;
    for_each_state([&](auto& v) {
      v = static_cast<std::remove_reference_t<decltype(v)>>(key[k++]);
    });
    resp_head = 0;
    for (std::size_t i = 0; i < resp_cnt; ++i) resp_ready[i] = now + key[k++];
  };
  // Ends the ticked span at a node: its stream peaks become the edge's and
  // raise the run's high-water marks.
  const auto close_span = [&] {
    for (std::size_t j = 0; j < ms.size(); ++j) {
      span_peak[j] = ms[j].peak;
      high_water[j] = std::max(high_water[j], ms[j].peak);
      ms[j].peak = 0;
    }
  };
  SpanAutomaton& spans = pe.spans_.automaton(
      agg_consumes, wd, num_stages, /*pads=*/!configurable);
  spans.bind(stage_pass, words_total);
  std::uint32_t span_from = 0;            // Node the ticked span started at.
  std::vector<std::uint64_t> span_start;  // Counters at span_from.
  std::vector<std::uint64_t> counters;
  std::vector<std::uint64_t> key;
  // At a node (or the finish tick): records the span just ticked as an
  // edge, then follows edges for as long as one replays; ticking resumes
  // from the state of the node the walk reached. Returns true when that
  // is a finish node.
  const auto at_node = [&](bool first, bool finish) {
    counters.clear();
    for_each_counter([&](std::uint64_t c) { counters.push_back(c); });
    save_node(key);
    const std::uint32_t id = spans.node(key, counters, finish);
    close_span();
    if (!first) spans.add_edge(span_from, id, span_start, counters, span_peak);
    if (finish) return true;
    span_from = spans.walk(id, counters, high_water);
    if (counters[SpanAutomaton::kNow] != now) {
      std::size_t i = 0;
      for_each_counter([&](std::uint64_t& c) { c = counters[i++]; });
      load_node(spans.key(span_from));
    }
    span_start.swap(counters);
    return spans.finish(span_from);
  };

  while (true) {
    // run_until's loop-top checks, mirrored so a fallback replay raises
    // at the identical cycle.
    if (now - n0 >= max_cycles) return false;
    if (wd > 0) {
      if (transfers_acc != last_delta) {
        last_delta = transfers_acc;
        stalled_since = now;
      } else if (now - stalled_since >= wd) {
        return false;  // Watchdog would trip: replay exactly.
      }
    }
    if (now == n0) {
      // Start tick: the sequencer (last in module order) consumes
      // START and resets the datapath; every earlier module no-ops on
      // its post-previous-run state. PE busy, no transfers -> stalled.
      // The state it leaves is the first node.
      ++stalled;
      if (at_node(/*first=*/true, /*finish=*/false)) break;
      ++now;
      continue;
    }

    bool tuple_in_t = false;  // The input buffer pushed: a span node.

    // --- AXI interconnect (module order position 0) ---
    // AxiInterconnect::cycle on the two queue occupancies.
    for (std::uint32_t granted = 0; granted < bpc; ++granted) {
      const bool can_read = rdq > 0 && resp_cnt < max_out;
      const bool can_write = wrq > 0;
      if (!can_read && !can_write) break;
      const bool write = can_write && (write_first || !can_read);
      if (write) {
        --wrq;
      } else {
        --rdq;
        std::size_t slot = resp_head + resp_cnt;
        if (slot >= max_out) slot -= max_out;
        resp_ready[slot] = now + latency;
        ++resp_cnt;
      }
      write_first = !write;
    }

    // --- Load unit ---
    while (words_requested < words_total && rdq < hw::kIssueWindow) {
      ++rdq;
      ++words_requested;
    }
    if (words_pushed < words_total && resp_cnt > 0 &&
        resp_ready[resp_head] <= now && wi.can_push()) {
      if (++resp_head == max_out) resp_head = 0;
      --resp_cnt;
      wi.push();
      ++words_pushed;
    }

    // --- Tuple input buffer ---
    if (wi.vis > 0 && ib_pending < storage_bits + 64) {
      --wi.vis;
      if (payload_rem > 0) {
        const std::uint64_t take = payload_rem < 64 ? payload_rem : 64;
        ib_pending += take;
        payload_rem -= take;
      }
    }
    if (ib_pending >= storage_bits && ts[0].can_push()) {
      ts[0].push();
      ib_pending -= storage_bits;
      ++tuples_produced;
      tuple_in_t = true;
    }
    if (payload_rem == 0 && ib_pending < storage_bits) ib_pending = 0;

    // --- Filter stages ---
    for (std::size_t s = 0; s < num_stages; ++s) {
      ModelStream& sin = ts[s];
      if (sin.vis == 0) {
        ++stall_in[s];
      } else if (!ts[s + 1].can_push()) {
        ++stall_out[s];
      } else {
        --sin.vis;
        if (stage_pass[s][pos[s]++] != 0) {
          ts[s + 1].push();
          ++pass_cnt[s];
        } else {
          ++drop_cnt[s];
        }
      }
    }

    // --- Aggregate unit (optional) ---
    if (pe.aggregate_ != nullptr && ts[agg_in].vis > 0) {
      if (agg_op == hw::AggOp::kNone) {
        if (ts[agg_in + 1].can_push()) {
          --ts[agg_in].vis;
          ts[agg_in + 1].push();
        }
      } else {
        --ts[agg_in].vis;
        ++agg_folded;
      }
    }

    // --- Transform unit ---
    if (ts[xform_in].vis > 0 && ts[xform_out].can_push()) {
      --ts[xform_in].vis;
      ts[xform_out].push();
    }

    // --- Tuple output buffer ---
    {
      ModelStream& oin = ts[num_tuple_streams - 1];
      if (oin.vis > 0 && ob_pending < 64 + out_storage_bits) {
        --oin.vis;
        ob_pending += out_storage_bits;
        ++ob_tuples;
      }
      if (wo.can_push()) {
        if (ob_pending >= 64) {
          wo.push();
          ob_pending -= 64;
        } else if (ob_upstream_done && ob_pending > 0 && oin.vis == 0) {
          wo.push();  // Final partial word, zero-padded.
          ob_pending = 0;
        }
      }
    }

    // --- Store unit ---
    if (wo.vis > 0 && wrq < hw::kIssueWindow) {
      --wo.vis;
      ++wrq;
      store_payload += 8;
      store_bytes += 8;
    } else if (!configurable && st_upstream_done && wo.vis == 0 &&
               store_bytes < chunk && wrq < hw::kIssueWindow) {
      ++wrq;  // Static baseline: zero-pad the block.
      store_bytes += 8;
    }

    // --- Sequencer (the PE module, last in order) ---
    bool drained = words_pushed == words_total && payload_rem == 0 &&
                   ib_pending < storage_bits && wi.empty();
    if (drained) {
      for (std::size_t j = 0; j < num_tuple_streams; ++j) {
        if (!ts[j].empty()) {
          drained = false;
          break;
        }
      }
    }
    ob_upstream_done = drained;
    st_upstream_done = drained && ob_pending == 0;
    const bool store_done =
        st_upstream_done && wo.empty() &&
        (configurable || store_bytes >= chunk);
    const bool finished =
        store_done && rdq == 0 && resp_cnt == 0 && wrq == 0;

    // --- End-of-tick stream commit + classification ---
    std::uint32_t moved = 0;
    for (ModelStream& m : ms) moved += m.commit();
    if (moved > 0) {
      transfers_acc += moved;
      ++useful;
    } else if (finished) {
      // The finish tick: finish_run already ran inside the sequencer
      // step and the kernel then classifies a fully quiescent state.
      at_node(/*first=*/false, /*finish=*/true);
      break;
    } else {
      ++stalled;
    }

    if (tuple_in_t && at_node(/*first=*/false, /*finish=*/false)) break;
    ++now;
  }
  // The loop ends on the finish tick, ticked or replayed; its loop-top
  // check is the run's last.
  const std::uint64_t nf = now;
  if (nf - n0 >= max_cycles) return false;

  // ================= Phase 4: state write-back =========================
  //
  // From here on the replay is committed; every mutation below matches
  // what the tick loop would have left behind, byte for byte.

  // Replay the start tick on the real sequencer: consumes START, clears
  // the START register, configures and resets every datapath module, and
  // snapshots the kernel cycle-classification for finish_run's window.
  pe.cycle(n0);

  // Window classification for ticks n0..nf-1 (the finish tick nf is
  // classified idle *after* finish_run reads the stats, matching the
  // exact loop's tick ordering).
  kernel.cycle_stats_.useful += useful;
  kernel.cycle_stats_.stalled += stalled;

  // Datapath module state at completion.
  pe.load_->words_requested_ = words_total;
  pe.load_->words_pushed_ = words_total;
  pe.in_buffer_->payload_bits_remaining_ = 0;
  pe.in_buffer_->pending_ = support::BitVector();
  pe.in_buffer_->tuples_produced_ = tuples_produced;
  for (std::size_t s = 0; s < num_stages; ++s) {
    pe.stages_[s]->pass_count_ = pass_cnt[s];
    pe.stages_[s]->drop_count_ = drop_cnt[s];
    pe.stages_[s]->stall_in_count_ = stall_in[s];
    pe.stages_[s]->stall_out_count_ = stall_out[s];
  }
  if (agg_consumes) {
    // start_run (via pe.cycle above) configured and reset the
    // accumulator; folding the survivors in arrival order reproduces the
    // identical result bits, including float rounding order.
    for (const std::uint32_t id : survivors) {
      pe.aggregate_->fold(plan.extract(record(id), agg_field));
    }
    pe.aggregate_->folded_ = agg_folded;
  }
  pe.out_buffer_->pending_ = support::BitVector();
  pe.out_buffer_->upstream_done_ = true;
  pe.out_buffer_->payload_bits_ = ob_tuples * out_storage_bits;
  pe.out_buffer_->tuples_consumed_ = ob_tuples;
  pe.store_->payload_bytes_ = store_payload;
  pe.store_->bytes_transferred_ = store_bytes;
  pe.store_->upstream_done_ = true;

  // Stream statistics: transfers and high-water marks accumulate across
  // runs; occupancies are already empty.
  const auto merge_stream = [](auto* stream, std::uint64_t pushes,
                               std::uint32_t high) {
    stream->transfers_ += pushes;
    if (high > stream->high_water_) stream->high_water_ = high;
  };
  merge_stream(pe.words_in_, wi.pushes, high_water[0]);
  merge_stream(pe.words_out_, wo.pushes, high_water[1]);
  for (std::size_t j = 0; j < num_tuple_streams; ++j) {
    merge_stream(pe.tuple_streams_[j], ts[j].pushes, high_water[2 + j]);
  }

  axi.write_first_ = write_first;

  // DRAM effects: the write queue drained in request order, so the final
  // memory image is the payload words followed by static-mode padding.
  out_bytes.resize(write_bytes, 0);
  mem.write_bytes(dst, out_bytes);

  // The sequencer's finish step: reads the counters written above,
  // publishes registers, metrics and the trace event — identical to the
  // exact path because every input it consumes is identical.
  pe.finish_run(nf);

  // Kernel bookkeeping for the finish tick and the window as a whole.
  kernel.cycle_stats_.idle += 1;
  kernel.now_ = nf + 1;
  kernel.last_transfer_count_ = kernel.total_transfers();

  return true;
}

}  // namespace ndpgen::hwsim
