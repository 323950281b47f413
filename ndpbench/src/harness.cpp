#include "harness.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace ndpbench {

using namespace ndpgen;

int Tracer::open(std::string_view name) {
  spans_.push_back(
      Span{std::string(name), seconds_since(epoch_), 0.0, current_});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = seconds_since(epoch_);
  current_ = span.parent;
}

void Tracer::add(std::string_view name, double seconds) {
  if (!enabled_) return;
  const double end = seconds_since(epoch_);
  spans_.push_back(Span{std::string(name), end - seconds, end, current_});
}

double Tracer::total(std::string_view name) const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) sum += span.end - span.start;
  }
  return sum;
}

double Tracer::self(std::string_view name) const {
  std::vector<double> children(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    }
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      sum += spans_[i].end - spans_[i].start - children[i];
    }
  }
  return sum;
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.end - span.start);
  }
  return out;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "ndpbench: cannot write %s\n", path.c_str());
    return;
  }
  char buffer[96];
  out << "{\"spans\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}",
                  span.start, span.end, span.parent);
    out << "{\"name\":\"" << span.name << buffer
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Ledger::check(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "ndpbench: WRONG ANSWER: %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

const std::vector<MetricSpec>& end_to_end_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"setup_s", "s"},
      {"run_s", "s"},
      {"peak_rss_mb", "MB"},
      {"ok_frac", "frac"},
      {"served_frac", "frac"},
      {"virt_ms", "ms"},
      {"virt_p50_ms", "ms"},
      {"virt_p99_ms", "ms"},
      {"virt_p99_ms.lo", "ms"},
      {"virt_p99_ms.hi", "ms"},
      {"virt_max_rate_rps", "1/s"},
  };
  return kCatalog;
}

const std::vector<MetricSpec>& per_layer_catalog() {
  static const std::vector<MetricSpec> kCatalog = {
      {"workload.gen_s", "s"},
      {"kv.bulk_load_self_s", "s"},
      {"core.compile_s", "s"},
      {"kv.read_block_s", "s"},
      {"hwsim.pe_block_s", "s"},
      {"hwsim.mcycles_per_s", "Mcycles/s"},
      {"ndp.sw_filter_s", "s"},
      {"ndp.scan_s", "s"},
      {"ndp.aggregate_s", "s"},
      {"ndp.range_scan_s", "s"},
      {"ndp.scan_self_s", "s"},
      {"ndp.get_hw_us.p50", "us"},
      {"ndp.get_hw_us.p99", "us"},
      {"ndp.get_sw_us.p50", "us"},
      {"ndp.get_sw_us.p99", "us"},
      {"ndp.offload_us.p50", "us"},
      {"ndp.offload_us.p99", "us"},
      {"host.run_s", "s"},
      {"host.self_s", "s"},
      {"kv.put_s", "s"},
      {"kv.del_s", "s"},
      {"kv.flushes", "count"},
      {"kv.compactions", "count"},
      {"kv.write_amp", "ratio"},
      {"query.compile_s", "s"},
      {"query.execute_s.recent_top", "s"},
      {"query.execute_s.edge_cut", "s"},
      {"query.execute_s.early_count", "s"},
      {"query.execute_s.hot_window_rows", "s"},
      {"query.execute_s.venue_hot_rows", "s"},
      {"query.records_loaded", "count"},
      {"query.rows_out", "count"},
      {"query.device_ms", "ms"},
      {"query.host_ms", "ms"},
      {"virt.phase.queueing_ms", "ms"},
      {"virt.phase.doorbell_ms", "ms"},
      {"virt.phase.transfer_ms", "ms"},
      {"virt.phase.flash_ms", "ms"},
      {"virt.phase.pe_ms", "ms"},
      {"virt.phase.merge_ms", "ms"},
      {"host.offloads", "count"},
      {"host.batch_mean", "count"},
      {"host.sq_high_water", "count"},
      {"host.device_util", "frac"},
      {"hwsim.cycles_useful", "count"},
      {"hwsim.cycles_stalled", "count"},
      {"hwsim.cycles_idle", "count"},
      {"ndp.tuples_scanned", "count"},
      {"ndp.results", "count"},
      {"ndp.match_frac", "frac"},
      {"kv.sst_blocks_read", "count"},
      {"bench.run_s", "s"},
      {"bench.untraced_run_s", "s"},
      {"bench.trace_overhead_frac", "frac"},
      {"bench.wall_setup_s", "s"},
      {"bench.wall_run_s", "s"},
      {"bench.probe_s", "s"},
  };
  return kCatalog;
}

void pin_threads(std::size_t count) {
  static const std::vector<int> cpus = [] {
    std::vector<int> order;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return order;
    const int current = sched_getcpu();
    if (current >= 0 && CPU_ISSET(current, &allowed)) order.push_back(current);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (cpu != current && CPU_ISSET(cpu, &allowed)) order.push_back(cpu);
    }
    return order;
  }();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < std::min(count, cpus.size()); ++i) {
    CPU_SET(cpus[i], &set);
  }
  // Best effort: an unpinned run is noisier, not wrong.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

double host_probe_seconds() {
  constexpr std::size_t kBlock = 32 * 1024;
  constexpr std::size_t kRecord = 128;
  // The inputs are built on the first call, before its timed part.
  static const std::vector<std::uint32_t> crc_table = [] {
    std::vector<std::uint32_t> table(256);
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  static const std::vector<std::uint32_t> cycle = [] {
    std::vector<std::uint32_t> next(4 * 1024 * 1024);
    for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
    InputRng rng(2);
    for (std::size_t i = next.size() - 1; i > 0; --i) {  // Sattolo
      std::swap(next[i], next[rng.below(i)]);
    }
    return next;
  }();
  static const std::vector<std::uint8_t> store = [] {
    std::vector<std::uint8_t> bytes(8 * 1024 * 1024);
    InputRng rng(1);
    for (std::size_t i = 0; i < bytes.size(); i += 8) {
      const std::uint64_t word = rng.next();
      std::memcpy(&bytes[i], &word, 8);
    }
    return bytes;
  }();

  const Clock::time_point start = Clock::now();
  std::vector<std::uint8_t> block(kBlock);
  std::vector<std::vector<std::uint8_t>> results;
  std::uint32_t crc_sum = 0;
  for (std::size_t offset = 0; offset < store.size(); offset += kBlock) {
    std::memcpy(block.data(), &store[offset], kBlock);
    std::uint32_t crc = ~0u;
    for (const std::uint8_t byte : block) {
      crc = crc_table[(crc ^ byte) & 0xff] ^ (crc >> 8);
    }
    crc_sum += ~crc;
    for (std::size_t record = 0; record < kBlock; record += kRecord) {
      std::uint32_t field = 0;
      std::memcpy(&field, &block[record + 8], 4);
      if (field % 3 == 0) {
        results.emplace_back(block.begin() + record,
                             block.begin() + record + kPaperResultBytes);
      }
    }
  }
  // Dependent loads over a random cycle through 16 MiB: cache and memory
  // latency, which the scan above hides behind sequential prefetch.
  std::uint32_t at = 0;
  for (std::size_t step = 0; step < 128 * 1024; ++step) at = cycle[at];
  const double seconds = seconds_since(start);
  // Keep the work observable so the compiler cannot drop it.
  static volatile std::uint64_t sink = 0;
  sink = sink + crc_sum + results.size() + at;
  return seconds;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
}

Values closed_loop_virtual(const std::vector<std::uint64_t>& latency_ns,
                           std::uint64_t virtual_ns,
                           std::uint64_t operations) {
  std::vector<double> latency_ms;
  latency_ms.reserve(latency_ns.size());
  for (const std::uint64_t ns : latency_ns) latency_ms.push_back(ms(ns));
  const double p99 = percentile(latency_ms, 0.99);
  return Values{
      {"virt_ms", ms(virtual_ns)},
      {"virt_p50_ms", percentile(latency_ms, 0.50)},
      {"virt_p99_ms", p99},
      {"virt_p99_ms.lo", p99},
      {"virt_p99_ms.hi", p99},
      {"virt_max_rate_rps",
       virtual_ns == 0 ? 0.0
                       : static_cast<double>(operations) * 1e9 /
                             static_cast<double>(virtual_ns)},
      {"served_frac", 1.0},
  };
}

void add_phases(const obs::PhaseBreakdown& phases, Values& out) {
  for (std::size_t i = 0; i < obs::kRequestPhaseCount; ++i) {
    const auto phase = static_cast<obs::RequestPhase>(i);
    out["virt.phase." + std::string(obs::phase_name(phase)) + "_ms"] +=
        ms(phases[phase]);
  }
}

void add_setup_layers(const Tracer& tracer, Values& out) {
  out["workload.gen_s"] = tracer.total("workload.gen");
  out["kv.bulk_load_self_s"] = tracer.self("kv.bulk_load");
  out["core.compile_s"] = tracer.total("core.compile");
}

std::uint64_t InputRng::next() noexcept {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix64(state_);
}

std::uint64_t InputRng::below(std::uint64_t bound) noexcept {
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

PaperFields fields_of(const workload::PaperRecord& p) {
  return PaperFields{p.id, p.year, p.venue_id, p.n_refs, p.n_cited};
}

bool decode_result(std::span<const std::uint8_t> record, PaperFields& out) {
  if (record.size() != kPaperResultBytes) return false;
  const auto le = [&](std::size_t offset, std::size_t bytes) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      value |= std::uint64_t{record[offset + i]} << (8 * i);
    }
    return value;
  };
  out.id = le(0, 8);
  out.year = static_cast<std::uint32_t>(le(8, 4));
  out.venue_id = static_cast<std::uint32_t>(le(12, 4));
  out.n_refs = static_cast<std::uint32_t>(le(16, 4));
  out.n_cited = static_cast<std::uint32_t>(le(20, 4));
  return true;
}

std::uint64_t digest(const PaperFields& f) noexcept {
  std::uint64_t h = mix64(f.id);
  h = mix64(h ^ (std::uint64_t{f.year} << 32 | f.venue_id));
  return mix64(h ^ (std::uint64_t{f.n_refs} << 32 | f.n_cited));
}

platform::CosmosConfig fast_platform() {
  platform::CosmosConfig config;
  config.sim_mode = hwsim::SimMode::kFast;
  return config;
}

kv::DBConfig paper_store_config() {
  kv::DBConfig config;
  config.record_bytes = workload::PaperRecord::kBytes;
  config.extractor = workload::paper_key;
  return config;
}

ndp::ExecutorConfig executor_config(ndp::ExecMode mode, std::size_t pe) {
  ndp::ExecutorConfig config;
  config.mode = mode;
  if (mode == ndp::ExecMode::kHardware) config.pe_indices = {pe};
  config.sim_mode = hwsim::SimMode::kFast;
  config.result_key_extractor = workload::paper_result_key;
  return config;
}

std::size_t compile_and_attach(const core::Framework& framework,
                               core::CompileResult& compiled,
                               platform::CosmosPlatform& cosmos,
                               Tracer& tracer) {
  const Scope scope(tracer, "core.compile");
  compiled = framework.compile(workload::pubgraph_spec_source());
  return framework.instantiate(compiled, "PaperScan", cosmos);
}

std::uint64_t load_papers(
    kv::NKV& db, const workload::PubGraphGenerator& generator,
    Tracer& tracer,
    const std::function<void(const workload::PaperRecord&)>& visit) {
  // Same SST geometry as workload::load_papers.
  constexpr std::uint64_t kPapersPerSst = 64 * 255;
  const Scope scope(tracer, "kv.bulk_load");
  const bool tracing = tracer.enabled();
  double gen_s = 0.0;
  std::uint64_t index = 0;
  db.bulk_load_sorted(
      2,
      [&](std::vector<std::uint8_t>& record) {
        if (index >= generator.paper_count()) return false;
        const Clock::time_point start =
            tracing ? Clock::now() : Clock::time_point{};
        const workload::PaperRecord paper = generator.paper(index++);
        record = paper.serialize();
        if (visit) visit(paper);
        if (tracing) gen_s += seconds_since(start);
        return true;
      },
      kPapersPerSst);
  tracer.add("workload.gen", gen_s);
  return index;
}

namespace {
std::uint64_t counter_or_zero(const obs::MetricsRegistry& metrics,
                              std::string_view name) {
  return metrics.contains(name) ? metrics.counter_value(name) : 0;
}
}  // namespace

DeviceCounts DeviceCounts::read(const obs::MetricsRegistry& metrics) {
  DeviceCounts counts;
  counts.cycles_useful = counter_or_zero(metrics, "hwsim.cycles_useful");
  counts.cycles_stalled = counter_or_zero(metrics, "hwsim.cycles_stalled");
  counts.cycles_idle = counter_or_zero(metrics, "hwsim.cycles_idle");
  counts.tuples_scanned =
      counter_or_zero(metrics, "ndp.scan.tuples_scanned") +
      counter_or_zero(metrics, "ndp.aggregate.tuples_scanned");
  counts.results = counter_or_zero(metrics, "ndp.scan.results");
  counts.sst_blocks_read = counter_or_zero(metrics, "kv.sst.blocks_read");
  return counts;
}

DeviceCounts DeviceCounts::since(const DeviceCounts& before) const {
  DeviceCounts delta;
  delta.cycles_useful = cycles_useful - before.cycles_useful;
  delta.cycles_stalled = cycles_stalled - before.cycles_stalled;
  delta.cycles_idle = cycles_idle - before.cycles_idle;
  delta.tuples_scanned = tuples_scanned - before.tuples_scanned;
  delta.results = results - before.results;
  delta.sst_blocks_read = sst_blocks_read - before.sst_blocks_read;
  return delta;
}

DeviceCounts& DeviceCounts::operator+=(const DeviceCounts& other) {
  cycles_useful += other.cycles_useful;
  cycles_stalled += other.cycles_stalled;
  cycles_idle += other.cycles_idle;
  tuples_scanned += other.tuples_scanned;
  results += other.results;
  sst_blocks_read += other.sst_blocks_read;
  return *this;
}

void DeviceCounts::add_to(Values& out) const {
  out["hwsim.cycles_useful"] += static_cast<double>(cycles_useful);
  out["hwsim.cycles_stalled"] += static_cast<double>(cycles_stalled);
  out["hwsim.cycles_idle"] += static_cast<double>(cycles_idle);
  out["ndp.tuples_scanned"] += static_cast<double>(tuples_scanned);
  out["ndp.results"] += static_cast<double>(results);
  out["ndp.match_frac"] =
      out["ndp.tuples_scanned"] == 0.0
          ? 0.0
          : out["ndp.results"] / out["ndp.tuples_scanned"];
  out["kv.sst_blocks_read"] += static_cast<double>(sst_blocks_read);
}

}  // namespace ndpbench
