// scan-bulk: full-table offloads, many times per run.
//
// Store: papers at 1/32 of full scale (117,973 records in 463 data blocks
// of 32 KiB: 15 MB), bulk loaded into C2. A larger store gave too few
// iterations per run to hold the host's noise down (README.md).
// Timed phase, four offloads on one store:
//   1. HW scan, year < 1990, collecting results, 1 PE (the serial path);
//   2. the same scan on 2 PE shards driven by 2 host threads;
//   3. HW aggregate sum(n_cited) over year < 1990 (the unchecked-read path);
//   4. SW scan (ARM model) with the same predicate, collecting results.
// The expected answers -- count, sum(n_cited) and an order-independent
// digest of the matching projected records -- are folded in the
// benchmark's own bulk-load callback from the generated records.
#include <span>

#include "harness.hpp"
#include "kv/block_format.hpp"
#include "kv/sst_reader.hpp"
#include "ndp/pe_shard.hpp"
#include "ndp/software_ndp.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

constexpr std::uint64_t kScale = 32;
constexpr std::uint32_t kYearBefore = 1990;

struct Expected {
  std::uint64_t count = 0;
  std::uint64_t sum_n_cited = 0;
  std::uint64_t digest = 0;
};

struct Stack {
  platform::CosmosPlatform cosmos{fast_platform()};
  kv::NKV db{cosmos, paper_store_config()};
  core::CompileResult compiled;
  std::size_t pe = 0;
};

core::Framework aggregating_framework() {
  core::FrameworkOptions options;
  options.hw.enable_aggregation = true;
  return core::Framework(options);
}

/// Position of `path` among the layout's filterable fields: the
/// aggregate unit's field selector.
std::uint32_t field_select(const analysis::TupleLayout& layout,
                           std::string_view path) {
  const auto index = layout.find_field(path);
  std::uint32_t select = 0;
  for (const std::size_t relevant : layout.relevant_indices()) {
    if (relevant == *index) break;
    ++select;
  }
  return select;
}

class ScanBulk final : public Workload {
 public:
  explicit ScanBulk(const Options& options)
      : options_(options),
        framework_(aggregating_framework()),
        generator_(workload::PubGraphConfig{.scale_divisor = kScale,
                                            .seed = options.seed}) {}

  void setup(Tracer& tracer) override {
    stack_.reset();  // Free the previous store before building the next.
    stack_ = std::make_unique<Stack>();
    Stack& s = *stack_;
    s.pe = compile_and_attach(framework_, s.compiled, s.cosmos, tracer);
    expected_ = {};
    load_papers(s.db, generator_, tracer,
                [this](const workload::PaperRecord& paper) {
                  if (paper.year >= kYearBefore) return;
                  ++expected_.count;
                  expected_.sum_n_cited += paper.n_cited;
                  expected_.digest += digest(fields_of(paper));
                });
    if (options_.corrupt_oracle) ++expected_.count;
  }

  std::vector<double> run(Tracer& tracer, Ledger& ledger) override {
    Stack& s = *stack_;
    const core::ParserArtifacts& parser = s.compiled.get("PaperScan");
    const DeviceCounts before =
        DeviceCounts::read(s.cosmos.observability().metrics);
    std::vector<std::uint64_t> latency_ns;
    obs::PhaseBreakdown phases;
    std::vector<double> parts;  // One per offload.

    const auto scan = [&](std::string_view what, ndp::ExecutorConfig config) {
      ndp::HybridExecutor executor(s.db, parser.analyzed,
                                   parser.design.operators, std::move(config));
      std::vector<std::vector<std::uint8_t>> results;
      double wall = 0.0;
      const ndp::ScanStats stats = timed(tracer, "ndp.scan", wall, [&] {
        return executor.scan(predicates(), &results);
      });
      parts.push_back(wall);
      latency_ns.push_back(stats.elapsed);
      phases += stats.phases;
      check_results(what, stats, results, ledger);
    };

    scan("hw scan, 1 PE", executor_config(ndp::ExecMode::kHardware, s.pe));
    ndp::ExecutorConfig sharded =
        executor_config(ndp::ExecMode::kHardware, s.pe);
    sharded.num_pes = 2;
    sharded.pe_threads = 2;
    pin_threads(2);
    scan("hw scan, 2 PE shards", std::move(sharded));
    pin_threads(1);
    {
      ndp::HybridExecutor executor(
          s.db, parser.analyzed, parser.design.operators,
          executor_config(ndp::ExecMode::kHardware, s.pe));
      double wall = 0.0;
      const ndp::AggregateStats stats =
          timed(tracer, "ndp.aggregate", wall, [&] {
            return executor.aggregate(predicates(), hwgen::AggOp::kSum,
                                      "n_cited");
          });
      parts.push_back(wall);
      latency_ns.push_back(stats.elapsed);
      ledger.check(stats.as_u64() == expected_.sum_n_cited &&
                       stats.folded == expected_.count,
                   "hw aggregate sum(n_cited)");
    }
    scan("sw scan", executor_config(ndp::ExecMode::kSoftware, s.pe));

    std::uint64_t virtual_ns = 0;
    for (const std::uint64_t ns : latency_ns) virtual_ns += ns;
    outcome_.e2e = closed_loop_virtual(latency_ns, virtual_ns,
                                       latency_ns.size());
    outcome_.counts.clear();
    DeviceCounts::read(s.cosmos.observability().metrics)
        .since(before)
        .add_to(outcome_.counts);
    add_phases(phases, outcome_.counts);
    return parts;
  }

  [[nodiscard]] VirtualOutcome outcome() const override { return outcome_; }

  // The timed offloads are opaque from outside, so the layers inside them
  // are measured by replaying each layer's public entry point over every
  // block the timed phase read, with the same bound predicates: checked
  // block assembly (kv), the PE (hwsim) and the software filter (ndp).
  Values layer_metrics(const Tracer& tracer, Ledger& ledger) override {
    Stack& s = *stack_;
    const core::ParserArtifacts& parser = s.compiled.get("PaperScan");
    const hwgen::PEDesign& design = parser.design;
    const analysis::TupleLayout& input = parser.analyzed.input;
    const auto hw_bound = ndp::bind_conjunction(
        input, design.operators, predicates(), design.filter_stage_count());
    const auto sw_bound =
        ndp::bind_conjunction(input, design.operators, predicates(), 1);
    ndp::PeShard scan_pe(0, design, s.cosmos.timing(), s.cosmos.config().axi,
                         false, false, {}, hwsim::SimMode::kFast);
    ndp::PeShard agg_pe(1, design, s.cosmos.timing(), s.cosmos.config().axi,
                        false, false, {}, hwsim::SimMode::kFast);
    scan_pe.set_aggregate(hwgen::AggOp::kNone, 0);
    agg_pe.set_aggregate(hwgen::AggOp::kSum, field_select(input, "n_cited"));
    const ndp::SoftwareNdp software(parser.analyzed, design.operators,
                                    s.cosmos.timing());

    double read_s = 0.0;
    double pe_scan_s = 0.0;
    double pe_agg_s = 0.0;
    double sw_s = 0.0;
    std::uint64_t pe_cycles = 0;
    std::uint64_t hw_matched = 0;
    std::uint64_t agg_folded = 0;
    std::uint64_t sw_matched = 0;
    bool reads_ok = true;
    bool first = true;
    for (const auto& table : s.db.version().recency_ordered()) {
      const kv::SSTReader reader(*table, s.cosmos.flash(),
                                 s.db.config().extractor);
      for (std::uint32_t b = 0; b < table->blocks.size(); ++b) {
        Clock::time_point start = Clock::now();
        auto checked = reader.read_block_checked(b);
        read_s += seconds_since(start);
        if (!checked.ok()) {
          reads_ok = false;
          continue;
        }
        const std::vector<std::uint8_t>& block = checked.value();
        const auto payload = std::span<const std::uint8_t>(block).first(
            kv::block_payload_bytes(kv::read_trailer(block)));

        start = Clock::now();
        const ndp::HwBlockResult hw =
            scan_pe.process_block(payload, hw_bound, true, first);
        pe_scan_s += seconds_since(start);
        start = Clock::now();
        const ndp::HwBlockResult agg =
            agg_pe.process_block(payload, hw_bound, false, first);
        pe_agg_s += seconds_since(start);
        start = Clock::now();
        const ndp::SwBlockResult sw = software.filter_block(block, sw_bound,
                                                            true);
        sw_s += seconds_since(start);

        first = false;
        pe_cycles += hw.stats.cycles;
        hw_matched += hw.stats.tuples_out;
        agg_folded += agg.stats.agg_folded;
        sw_matched += sw.tuples_out;
      }
    }
    ledger.check(reads_ok && hw_matched == expected_.count &&
                     agg_folded == expected_.count &&
                     sw_matched == expected_.count,
                 "replayed block reads, PE and SW filter");

    Values out;
    // The three scans assemble every block through read_block_checked (the
    // aggregate assembles unchecked); the sharded scan spreads its PE work
    // over two host threads, so it costs half a pass of wall time.
    const double read_block_s = 3.0 * read_s;
    const double pe_block_s = 1.5 * pe_scan_s + pe_agg_s;
    out["kv.read_block_s"] = read_block_s;
    out["hwsim.pe_block_s"] = pe_block_s;
    out["hwsim.mcycles_per_s"] =
        static_cast<double>(pe_cycles) / pe_scan_s / 1e6;
    out["ndp.sw_filter_s"] = sw_s;
    out["ndp.scan_s"] = tracer.total("ndp.scan");
    out["ndp.aggregate_s"] = tracer.total("ndp.aggregate");
    out["ndp.scan_self_s"] = out["ndp.scan_s"] + out["ndp.aggregate_s"] -
                             read_block_s - pe_block_s - sw_s;
    return out;
  }

 private:
  static std::vector<ndp::FilterPredicate> predicates() {
    return {{"year", "lt", kYearBefore}};
  }

  void check_results(std::string_view what, const ndp::ScanStats& stats,
                     const std::vector<std::vector<std::uint8_t>>& results,
                     Ledger& ledger) const {
    bool shaped = true;
    std::uint64_t sum = 0;
    PaperFields fields;
    for (const auto& record : results) {
      shaped = shaped && decode_result(record, fields) &&
               fields.year < kYearBefore;
      sum += digest(fields);
    }
    ledger.check(shaped && results.size() == expected_.count &&
                     stats.results == expected_.count &&
                     sum == expected_.digest,
                 what);
  }

  Options options_;
  core::Framework framework_;
  workload::PubGraphGenerator generator_;
  std::unique_ptr<Stack> stack_;
  Expected expected_;
  VirtualOutcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> make_scan_bulk(const Options& options) {
  return std::make_unique<ScanBulk>(options);
}

}  // namespace ndpbench
