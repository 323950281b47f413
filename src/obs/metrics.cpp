#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

#include "obs/json.hpp"
#include "support/error.hpp"

namespace ndpgen::obs {

std::uint32_t MetricsRegistry::register_metric(std::string_view name,
                                               Kind kind) {
  NDPGEN_CHECK_ARG(!name.empty(), "metric name must not be empty");
  std::lock_guard<std::mutex> lock(register_mutex_);
  // Look the name up as a view first: only a new name is copied.
  if (const auto it = index_.find(name); it != index_.end()) {
    NDPGEN_CHECK_ARG(it->second.first == kind,
                     "metric '" + std::string(name) +
                         "' already registered with a different kind");
    return it->second.second;
  }
  std::uint32_t index = 0;
  switch (kind) {
    case Kind::kCounter:
      index = static_cast<std::uint32_t>(counters_.size());
      counters_.push_back(Counter{std::string(name), 0});
      break;
    case Kind::kGauge:
      index = static_cast<std::uint32_t>(gauges_.size());
      gauges_.push_back(Gauge{std::string(name), 0, 0});
      break;
    case Kind::kHistogram:
      index = static_cast<std::uint32_t>(histograms_.size());
      histograms_.push_back(Histogram{
          std::string(name), 0, 0, kEmptyMin, 0,
          std::vector<RelaxedU64>(kHistogramBuckets)});
      break;
  }
  index_.emplace(std::string(name), std::pair{kind, index});
  return index;
}

CounterHandle MetricsRegistry::counter(std::string_view name) {
  return CounterHandle{register_metric(name, Kind::kCounter)};
}

GaugeHandle MetricsRegistry::gauge(std::string_view name) {
  return GaugeHandle{register_metric(name, Kind::kGauge)};
}

HistogramHandle MetricsRegistry::histogram(std::string_view name) {
  return HistogramHandle{register_metric(name, Kind::kHistogram)};
}

void MetricsRegistry::observe(HistogramHandle handle,
                              std::uint64_t sample) noexcept {
  Histogram& histogram = histograms_[handle.index];
  histogram.min.lower_to(sample);
  histogram.max.raise_to(sample);
  histogram.count.add(1);
  histogram.sum.add(sample);
  histogram.buckets[static_cast<std::size_t>(std::bit_width(sample))].add(1);
}

namespace {

template <typename Table>
const auto& find_metric(const Table& table, std::string_view name,
                        const char* kind) {
  for (const auto& entry : table) {
    if (entry.name == name) return entry;
  }
  ndpgen::raise(ErrorKind::kInvalidArg,
                std::string("unknown ") + kind + " metric '" +
                    std::string(name) + "'");
}

}  // namespace

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  return find_metric(counters_, name, "counter").value.load();
}

std::uint64_t MetricsRegistry::gauge_value(std::string_view name) const {
  return find_metric(gauges_, name, "gauge").value.load();
}

std::uint64_t MetricsRegistry::gauge_max(std::string_view name) const {
  return find_metric(gauges_, name, "gauge").max.load();
}

std::uint64_t MetricsRegistry::histogram_count(std::string_view name) const {
  return find_metric(histograms_, name, "histogram").count.load();
}

std::uint64_t MetricsRegistry::histogram_sum(std::string_view name) const {
  return find_metric(histograms_, name, "histogram").sum.load();
}

std::uint64_t MetricsRegistry::histogram_min(std::string_view name) const {
  const auto& histogram = find_metric(histograms_, name, "histogram");
  return histogram.count.load() == 0 ? 0 : histogram.min.load();
}

std::uint64_t MetricsRegistry::histogram_max(std::string_view name) const {
  return find_metric(histograms_, name, "histogram").max.load();
}

std::uint64_t MetricsRegistry::histogram_percentile(std::string_view name,
                                                    double p) const {
  NDPGEN_CHECK_ARG(p >= 0.0 && p <= 1.0, "percentile must be in [0, 1]");
  const auto& histogram = find_metric(histograms_, name, "histogram");
  const std::uint64_t count = histogram.count.load();
  if (count == 0) return 0;
  // Degenerate ranks have exact answers that need no bucket walk: p=0 is
  // the observed minimum (NOT the rank-1 bucket bound, which can overshoot
  // it), p=1 the observed maximum, and a single-sample histogram holds
  // only its minimum.
  if (p == 0.0 || count == 1) return histogram.min.load();
  if (p == 1.0) return histogram.max.load();
  // Nearest rank, integer-only: rank r is the smallest integer with
  // r >= p * count (at least 1), found without touching libm so the value
  // is bit-identical across platforms.
  std::uint64_t rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count));
  if (static_cast<double>(rank) < p * static_cast<double>(count)) ++rank;
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  std::size_t bucket = histogram.buckets.size() - 1;
  for (std::size_t b = 0; b < histogram.buckets.size(); ++b) {
    cumulative += histogram.buckets[b].load();
    if (cumulative >= rank) {
      bucket = b;
      break;
    }
  }
  // Bucket b holds samples of bit-width b, i.e. values in [2^(b-1), 2^b);
  // report its inclusive upper bound, then clamp to the recorded extrema.
  const std::uint64_t bound =
      bucket == 0 ? 0
      : bucket >= 64 ? std::numeric_limits<std::uint64_t>::max()
                     : (std::uint64_t{1} << bucket) - 1;
  return std::clamp(bound, histogram.min.load(), histogram.max.load());
}

std::string MetricsRegistry::dump_json() const {
  // Sort each section by name for deterministic output regardless of
  // registration order differences between runs (there are none when runs
  // are identical, but sorting also makes the dump diffable by humans).
  auto sorted_indices = [](const auto& table) {
    std::vector<std::size_t> order(table.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&table](std::size_t a, std::size_t b) {
                return table[a].name < table[b].name;
              });
    return order;
  };

  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const std::size_t i : sorted_indices(counters_)) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + json_escape(counters_[i].name) +
           "\": " + std::to_string(counters_[i].value.load());
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const std::size_t i : sorted_indices(gauges_)) {
    out += first ? "\n" : ",\n";
    first = false;
    const Gauge& gauge = gauges_[i];
    out += "    \"" + json_escape(gauge.name) +
           "\": {\"value\": " + std::to_string(gauge.value.load()) +
           ", \"max\": " + std::to_string(gauge.max.load()) + "}";
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const std::size_t i : sorted_indices(histograms_)) {
    out += first ? "\n" : ",\n";
    first = false;
    const Histogram& histogram = histograms_[i];
    const std::uint64_t count = histogram.count.load();
    // An empty histogram reports min 0, matching the pre-sentinel format.
    const std::uint64_t min = count == 0 ? 0 : histogram.min.load();
    out += "    \"" + json_escape(histogram.name) +
           "\": {\"count\": " + std::to_string(count) +
           ", \"sum\": " + std::to_string(histogram.sum.load()) +
           ", \"min\": " + std::to_string(min) +
           ", \"max\": " + std::to_string(histogram.max.load()) +
           ", \"buckets\": [";
    // Sparse bucket encoding: [bit_width, count] pairs for non-empty ones.
    bool first_bucket = true;
    for (std::size_t b = 0; b < histogram.buckets.size(); ++b) {
      const std::uint64_t bucket = histogram.buckets[b].load();
      if (bucket == 0) continue;
      if (!first_bucket) out += ", ";
      first_bucket = false;
      out += "[" + std::to_string(b) + ", " + std::to_string(bucket) + "]";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void MetricsRegistry::reset_values() noexcept {
  for (auto& counter : counters_) counter.value.store(0);
  for (auto& gauge : gauges_) {
    gauge.value.store(0);
    gauge.max.store(0);
  }
  for (auto& histogram : histograms_) {
    histogram.count.store(0);
    histogram.sum.store(0);
    histogram.min.store(kEmptyMin);
    histogram.max.store(0);
    for (auto& bucket : histogram.buckets) bucket.store(0);
  }
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  // Inactive source metrics are skipped entirely (not even registered), so
  // merging an idle shard leaves the target's dump byte-identical.
  for (const Counter& source : other.counters_) {
    const std::uint64_t value = source.value.load();
    if (value != 0) add(counter(source.name), value);
  }
  for (const Gauge& source : other.gauges_) {
    const std::uint64_t value = source.value.load();
    const std::uint64_t max = source.max.load();
    if (value == 0 && max == 0) continue;
    Gauge& target = gauges_[gauge(source.name).index];
    target.value.raise_to(value);
    target.max.raise_to(max);
  }
  for (const Histogram& source : other.histograms_) {
    const std::uint64_t count = source.count.load();
    if (count == 0) continue;
    Histogram& target = histograms_[histogram(source.name).index];
    target.count.add(count);
    target.sum.add(source.sum.load());
    target.min.lower_to(source.min.load());
    target.max.raise_to(source.max.load());
    for (std::size_t b = 0; b < source.buckets.size(); ++b) {
      const std::uint64_t bucket = source.buckets[b].load();
      if (bucket != 0) target.buckets[b].add(bucket);
    }
  }
}

}  // namespace ndpgen::obs
