// MetricsRegistry: named counters, gauges and log-bucketed histograms.
//
// Designed for the hwsim hot path: a metric name is resolved to a handle
// ONCE at registration time; every subsequent update is a plain array
// indexing on an atomic uint64_t slot — no map lookup, no allocation, no
// branch on sink state. Dumps are deterministic (sorted by name,
// integer-only formatting) so two identical simulation runs produce
// byte-identical metrics files.
//
// Thread safety: handle updates (add/set/raise/observe) are lock-free
// relaxed atomics and may race freely; registration is mutex-protected and
// slot tables are deques, so resolving a new handle never invalidates a
// concurrent updater's slot. Relaxed ordering is sufficient because
// metrics carry no inter-thread synchronization — readers (dump, tests)
// run after the threads producing the values have been joined.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ndpgen::obs {

/// Typed handles keep the per-kind slot arrays branch-free on update.
struct CounterHandle {
  std::uint32_t index = 0;
};
struct GaugeHandle {
  std::uint32_t index = 0;
};
struct HistogramHandle {
  std::uint32_t index = 0;
};

/// A relaxed-atomic uint64 that is copyable so it can live in slot tables.
/// Copies are NOT atomic snapshots of anything larger than one word — they
/// only happen at registration/merge time, never concurrently with updates
/// to the copied-from slot's table entry.
class RelaxedU64 {
 public:
  constexpr RelaxedU64(std::uint64_t value = 0) noexcept : value_(value) {}
  RelaxedU64(const RelaxedU64& other) noexcept : value_(other.load()) {}
  RelaxedU64& operator=(const RelaxedU64& other) noexcept {
    store(other.load());
    return *this;
  }
  RelaxedU64& operator=(std::uint64_t value) noexcept {
    store(value);
    return *this;
  }

  [[nodiscard]] std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void store(std::uint64_t value) noexcept {
    value_.store(value, std::memory_order_relaxed);
  }
  void add(std::uint64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Monotonically raises the stored value to at least `value`.
  void raise_to(std::uint64_t value) noexcept {
    std::uint64_t current = load();
    while (current < value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  /// Monotonically lowers the stored value to at most `value`.
  void lower_to(std::uint64_t value) noexcept {
    std::uint64_t current = load();
    while (current > value &&
           !value_.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<std::uint64_t> value_;
};

class MetricsRegistry {
 public:
  /// Number of log2 histogram buckets: bucket b counts samples whose
  /// bit-width is b, i.e. values in [2^(b-1), 2^b) (bucket 0 counts 0).
  static constexpr std::size_t kHistogramBuckets = 65;

  // --- Registration (get-or-create; same name -> same handle) ----------
  CounterHandle counter(std::string_view name);
  GaugeHandle gauge(std::string_view name);
  HistogramHandle histogram(std::string_view name);

  // --- Hot-path updates (lock-free, safe from any thread) ---------------
  void add(CounterHandle handle, std::uint64_t delta = 1) noexcept {
    counters_[handle.index].value.add(delta);
  }
  /// Sets the gauge value; the registry tracks the high-water mark.
  void set(GaugeHandle handle, std::uint64_t value) noexcept {
    Gauge& gauge = gauges_[handle.index];
    gauge.value.store(value);
    gauge.max.raise_to(value);
  }
  /// Raises the gauge to `value` if it is below it (pure high-water use).
  void raise(GaugeHandle handle, std::uint64_t value) noexcept {
    Gauge& gauge = gauges_[handle.index];
    gauge.value.raise_to(value);
    gauge.max.raise_to(value);
  }
  void observe(HistogramHandle handle, std::uint64_t sample) noexcept;

  // --- Readers (tests, reporting) ---------------------------------------
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge_value(std::string_view name) const;
  [[nodiscard]] std::uint64_t gauge_max(std::string_view name) const;
  [[nodiscard]] std::uint64_t histogram_count(std::string_view name) const;
  [[nodiscard]] std::uint64_t histogram_sum(std::string_view name) const;
  /// Smallest observed sample; 0 when the histogram is empty (matching the
  /// dump_json rendering of the empty-min sentinel).
  [[nodiscard]] std::uint64_t histogram_min(std::string_view name) const;
  [[nodiscard]] std::uint64_t histogram_max(std::string_view name) const;
  /// Nearest-rank percentile over the recorded bounds: the upper bound of
  /// the log2 bucket holding the ceil(p*count)-th sample, clamped to the
  /// exact observed [min, max] — so a single-sample histogram and p=1.0
  /// report exact values. Empty histograms report 0. p must be in [0, 1].
  [[nodiscard]] std::uint64_t histogram_percentile(std::string_view name,
                                                   double p) const;
  [[nodiscard]] bool contains(std::string_view name) const noexcept {
    std::lock_guard<std::mutex> lock(register_mutex_);
    return index_.contains(name);
  }
  [[nodiscard]] std::size_t size() const noexcept {
    std::lock_guard<std::mutex> lock(register_mutex_);
    return index_.size();
  }

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}, every section sorted by metric name.
  [[nodiscard]] std::string dump_json() const;

  /// Zeroes all values; registered names and handles stay valid.
  void reset_values() noexcept;

  /// Folds another registry into this one: counters add, gauges keep the
  /// maximum of value/max, histograms merge count/sum/min/max/buckets.
  /// Active missing metrics are registered here; metrics that never moved
  /// are skipped outright, so merging an idle shard leaves the dump
  /// byte-identical. Call after the threads producing `other` have been
  /// joined.
  void merge_from(const MetricsRegistry& other);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  /// Sentinel for "no sample yet"; dumps render it as 0 while count == 0.
  static constexpr std::uint64_t kEmptyMin =
      std::numeric_limits<std::uint64_t>::max();

  struct Counter {
    std::string name;
    RelaxedU64 value;
  };
  struct Gauge {
    std::string name;
    RelaxedU64 value;
    RelaxedU64 max;
  };
  struct Histogram {
    std::string name;
    RelaxedU64 count;
    RelaxedU64 sum;
    RelaxedU64 min{kEmptyMin};
    RelaxedU64 max;
    std::vector<RelaxedU64> buckets;  ///< kHistogramBuckets entries.
  };

  std::uint32_t register_metric(std::string_view name, Kind kind);

  // Deques: growth at registration never moves existing slots, so a handle
  // resolved on one thread stays valid while another thread registers.
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
  /// Hashes names and string views alike, so a lookup allocates nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const noexcept {
      return std::hash<std::string_view>{}(name);
    }
  };
  /// name -> (kind, index). Only touched at registration and dump time.
  std::unordered_map<std::string, std::pair<Kind, std::uint32_t>, NameHash,
                     std::equal_to<>>
      index_;
  mutable std::mutex register_mutex_;  ///< Guards index_ and table growth.
};

}  // namespace ndpgen::obs
