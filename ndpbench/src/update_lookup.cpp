// update-lookup: writes next to point lookups on a durable LSM store.
//
// Store: papers at 1/16 scale (235,947 records) bulk loaded into C2 of a
// durable store (WAL + manifest, 96 KiB memtable, timed writes, automatic
// flush and compaction). One closed-loop client issues seeded overwrites
// (15/16) and deletes (1/16); after every 4 writes it issues a GET,
// alternating between a HW and a SW executor, and after every 1,000 writes
// a flush and a 2,000-key HW range scan. Point lookups and the recency
// dedup then run over overlapping multi-version tables.
//
// Expected answers come from a benchmark-side model of the live keys: the
// generated records, updated by every write the client issues.
#include <algorithm>
#include <cstdio>

#include "harness.hpp"

namespace ndpbench {
namespace {

using namespace ndpgen;

constexpr std::uint64_t kScale = 16;
constexpr std::uint64_t kWrites = 16'000;
constexpr std::uint64_t kGetEvery = 4;
constexpr std::uint64_t kRangeEvery = 1'000;
constexpr std::uint64_t kRangeKeys = 2'000;

kv::DBConfig durable_store_config() {
  kv::DBConfig config = paper_store_config();
  config.memtable_bytes = 96 * 1024;
  config.timed_writes = true;
  config.durability.enabled = true;
  return config;
}

struct Stack {
  platform::CosmosPlatform cosmos{fast_platform()};
  kv::NKV db{cosmos, durable_store_config()};
  core::CompileResult compiled;
  std::size_t pe = 0;
  std::unique_ptr<ndp::HybridExecutor> hw;
  std::unique_ptr<ndp::HybridExecutor> sw;
};

/// A seeded overwrite of paper `id`.
workload::PaperRecord overwrite(std::uint64_t id, InputRng& rng) {
  workload::PaperRecord paper;
  paper.id = id;
  paper.year = 1936 + static_cast<std::uint32_t>(rng.below(85));
  paper.venue_id = static_cast<std::uint32_t>(rng.below(12'000));
  paper.n_refs = 10;
  paper.n_cited = static_cast<std::uint32_t>(rng.below(21));
  std::snprintf(paper.title, sizeof(paper.title), "U%07llu",
                static_cast<unsigned long long>(id));
  return paper;
}

class UpdateLookup final : public Workload {
 public:
  explicit UpdateLookup(const Options& options)
      : options_(options),
        generator_(workload::PubGraphConfig{.scale_divisor = kScale,
                                            .seed = options.seed}) {}

  void setup(Tracer& tracer) override {
    stack_.reset();  // Free the previous store before building the next.
    stack_ = std::make_unique<Stack>();
    Stack& s = *stack_;
    s.pe = compile_and_attach(framework_, s.compiled, s.cosmos, tracer);
    live_.assign(generator_.paper_count(), false);
    model_.assign(generator_.paper_count(), PaperFields{});
    load_papers(s.db, generator_, tracer,
                [this](const workload::PaperRecord& paper) {
                  live_[paper.id - 1] = true;
                  model_[paper.id - 1] = fields_of(paper);
                });
    const core::ParserArtifacts& parser = s.compiled.get("PaperScan");
    s.hw = std::make_unique<ndp::HybridExecutor>(
        s.db, parser.analyzed, parser.design.operators,
        executor_config(ndp::ExecMode::kHardware, s.pe));
    s.sw = std::make_unique<ndp::HybridExecutor>(
        s.db, parser.analyzed, parser.design.operators,
        executor_config(ndp::ExecMode::kSoftware, s.pe));
  }

  std::vector<double> run(Tracer& tracer, Ledger& ledger) override {
    Stack& s = *stack_;
    const std::uint64_t n = generator_.paper_count();
    const DeviceCounts before =
        DeviceCounts::read(s.cosmos.observability().metrics);
    const std::uint64_t pages_before = s.cosmos.flash().pages_programmed();
    const std::uint64_t flushes_before = s.db.stats().flushes;
    const std::uint64_t compactions_before =
        s.db.compaction_stats().compactions;
    const platform::SimTime t0 = s.cosmos.events().now();

    InputRng rng(mix64(options_.seed ^ 0x75706461'74656c6bULL));
    std::vector<std::uint64_t> get_ns;
    obs::PhaseBreakdown phases;
    std::uint64_t user_bytes = 0;
    std::uint64_t operations = 0;
    std::uint64_t gets = 0;
    bool corrupt = options_.corrupt_oracle;
    std::vector<double> parts;  // One per kRangeEvery writes.
    double wall = 0.0;
    for (std::uint64_t w = 1; w <= kWrites; ++w) {
      // Deletes take ids divisible by 16 and overwrites the others: scans
      // drop every key that has a tombstone in any table, so a key that is
      // re-written after its delete would read as missing.
      if (rng.below(16) == 0) {
        const std::uint64_t id = 16 * (1 + rng.below(n / 16));
        timed(tracer, "kv.del", wall, [&] { s.db.del(kv::Key{id, 0}); });
        live_[id - 1] = false;
        user_bytes += 16;  // The key.
      } else {
        std::uint64_t id = 1 + rng.below(n);
        while (id % 16 == 0) id = 1 + rng.below(n);
        const workload::PaperRecord paper = overwrite(id, rng);
        const std::vector<std::uint8_t> record = paper.serialize();
        timed(tracer, "kv.put", wall, [&] { s.db.put(record); });
        live_[id - 1] = true;
        model_[id - 1] = fields_of(paper);
        user_bytes += record.size();
      }
      ++operations;

      if (w % kGetEvery == 0) {
        const std::uint64_t key = 1 + rng.below(n);
        const bool hw = gets++ % 2 == 0;
        const ndp::GetStats stats =
            timed(tracer, hw ? "ndp.get.hw" : "ndp.get.sw", wall,
                  [&] { return (hw ? *s.hw : *s.sw).get(kv::Key{key, 0}); });
        get_ns.push_back(stats.elapsed);
        ++operations;
        const bool expect_found = live_[key - 1] != corrupt;
        corrupt = false;
        PaperFields got;
        ledger.check(stats.found == expect_found &&
                         (!stats.found ||
                          (decode_result(stats.record, got) &&
                           got == model_[key - 1])),
                     hw ? "hw get" : "sw get");
      }

      if (w % kRangeEvery == 0) {
        const std::uint64_t lo = 1 + rng.below(n - kRangeKeys + 1);
        const std::uint64_t hi = lo + kRangeKeys - 1;
        // Scans read the SSTs only (GET alone consults the memtable), so
        // the client flushes first to scan every acknowledged write.
        timed(tracer, "kv.flush", wall, [&] { s.db.flush(); });
        std::vector<std::vector<std::uint8_t>> results;
        const ndp::ScanStats stats =
            timed(tracer, "ndp.range_scan", wall, [&] {
              return s.hw->range_scan(kv::Key{lo, 0}, kv::Key{hi, 0}, {},
                                      &results);
            });
        phases += stats.phases;
        ++operations;
        ledger.check(range_matches(lo, hi, results), "hw range scan");
        parts.push_back(wall);
        wall = 0.0;
      }
    }

    const platform::SimTime virtual_ns = s.cosmos.events().now() - t0;
    outcome_.e2e = closed_loop_virtual(get_ns, virtual_ns, operations);
    Values& c = outcome_.counts;
    c.clear();
    c["kv.flushes"] =
        static_cast<double>(s.db.stats().flushes - flushes_before);
    c["kv.compactions"] = static_cast<double>(
        s.db.compaction_stats().compactions - compactions_before);
    c["kv.write_amp"] =
        static_cast<double>((s.cosmos.flash().pages_programmed() -
                             pages_before) *
                            s.cosmos.flash().topology().page_bytes) /
        static_cast<double>(user_bytes);
    add_phases(phases, c);
    DeviceCounts::read(s.cosmos.observability().metrics)
        .since(before)
        .add_to(c);
    return parts;
  }

  [[nodiscard]] VirtualOutcome outcome() const override { return outcome_; }

  Values layer_metrics(const Tracer& tracer, Ledger& /*ledger*/) override {
    const auto us = [](std::vector<double> seconds) {
      for (double& d : seconds) d *= 1e6;
      return seconds;
    };
    const std::vector<double> hw_us = us(tracer.durations("ndp.get.hw"));
    const std::vector<double> sw_us = us(tracer.durations("ndp.get.sw"));
    Values out;
    out["kv.put_s"] = tracer.total("kv.put") + tracer.total("kv.flush");
    out["kv.del_s"] = tracer.total("kv.del");
    out["ndp.get_hw_us.p50"] = percentile(hw_us, 0.50);
    out["ndp.get_hw_us.p99"] = percentile(hw_us, 0.99);
    out["ndp.get_sw_us.p50"] = percentile(sw_us, 0.50);
    out["ndp.get_sw_us.p99"] = percentile(sw_us, 0.99);
    out["ndp.range_scan_s"] = tracer.total("ndp.range_scan");
    out["ndp.scan_self_s"] = out["ndp.range_scan_s"];
    return out;
  }

 private:
  /// True when `results` are exactly the live records of ids [lo, hi] with
  /// the model's content. Scans emit tables in recency order, so the
  /// records are compared by id.
  [[nodiscard]] bool range_matches(
      std::uint64_t lo, std::uint64_t hi,
      const std::vector<std::vector<std::uint8_t>>& results) const {
    std::vector<PaperFields> got(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (!decode_result(results[i], got[i])) return false;
    }
    std::sort(got.begin(), got.end(),
              [](const PaperFields& a, const PaperFields& b) {
                return a.id < b.id;
              });
    std::size_t next = 0;
    for (std::uint64_t id = lo; id <= hi; ++id) {
      if (!live_[id - 1]) continue;
      if (next >= got.size() || got[next] != model_[id - 1]) return false;
      ++next;
    }
    return next == got.size();
  }

  Options options_;
  core::Framework framework_;
  workload::PubGraphGenerator generator_;
  std::unique_ptr<Stack> stack_;
  std::vector<bool> live_;          ///< By id - 1.
  std::vector<PaperFields> model_;  ///< Latest written content by id - 1.
  VirtualOutcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> make_update_lookup(const Options& options) {
  return std::make_unique<UpdateLookup>(options);
}

}  // namespace ndpbench
