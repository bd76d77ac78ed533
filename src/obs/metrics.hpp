// MetricRegistry: the process's shared metric surface. Counters,
// gauges, and fixed-bucket histograms are registered once (under a
// mutex) and then recorded into lock-free: every hot-path operation is
// a handful of relaxed atomic ops on pre-allocated storage — no maps,
// no locks, no allocation. Labeled families share a metric name and
// differ in their label sets, the Prometheus data model; snapshot()
// reads everything without stopping writers.
//
// Histograms come in two flavours sharing one class:
//   * explicit bounds (ascending upper bucket edges + overflow), for
//     domain-shaped grids;
//   * exponential (first_bound * growth^i), whose bucket index is a
//     single log() instead of a binary search — the latency-histogram
//     hot path (serve/ times its endpoints on a 1 us x 1.046 x 400
//     grid, ~4.6% relative resolution).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wavm3::obs {

/// Ordered label key/value pairs. Order is preserved in exports;
/// (name, labels) identifies a metric uniquely within a registry.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind k);

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  // Test support: isolates metric state between tests.
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins scalar; add() is a CAS loop for accumulating sums
/// (bytes moved, joules burned) that are not integer event counts.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d);
  double value() const { return v_.load(std::memory_order_relaxed); }
  // Test support: isolates metric state between tests.
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of a histogram's buckets, with quantile helpers.
struct HistogramSnapshot {
  std::vector<double> bounds;        ///< finite upper bucket edges, ascending
  std::vector<std::uint64_t> counts; ///< bounds.size() + 1 (last = overflow)
  std::uint64_t count = 0;
  double sum = 0.0;
  /// What the overflow bucket reports as its nominal upper edge
  /// (growth-extrapolated for exponential grids, last finite bound
  /// otherwise).
  double overflow_bound = 0.0;

  /// Value below which a fraction `q` of recordings fall, linearly
  /// interpolated inside the containing bucket (0 when empty; the
  /// overflow bucket reports `overflow_bound`).
  double quantile(double q) const;

  /// Conservative quantile: the upper edge of the bucket holding the
  /// ceil(q * count)-th recording — errs high, never interpolates.
  /// serve/ reports its endpoint percentiles with this rule.
  double quantile_upper_bound(double q) const;
};

/// Fixed-bucket histogram; observe() is lock-free and allocation-free.
class Histogram {
 public:
  /// Explicit ascending upper bucket edges; an overflow bucket is
  /// appended automatically.
  explicit Histogram(std::vector<double> bounds);

  /// Exponential grid: buckets-1 finite edges first_bound * growth^i
  /// (i = 0 .. buckets-2) plus the overflow bucket, indexed with one
  /// log() on the hot path.
  Histogram(double first_bound, double growth, int buckets);

  void observe(double v);

  /// Records `n` observations of `v` with one update of each atomic:
  /// the buckets and count() match n observe(v) calls, and sum() does
  /// too whenever v * n is exact.
  void observe_n(double v, std::uint64_t n);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSnapshot snapshot() const;

  // Test support: isolates metric state between tests.
  void reset();

 private:
  std::size_t bucket_index(double v) const;

  std::vector<double> bounds_;  ///< finite upper edges
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  bool exponential_ = false;
  double first_bound_ = 0.0;
  double inv_log_growth_ = 0.0;
  double overflow_bound_ = 0.0;
};

/// One metric as read by snapshot().
struct MetricSnapshot {
  std::string name;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  Labels labels;
  std::uint64_t counter_value = 0;  ///< kCounter
  double gauge_value = 0.0;         ///< kGauge
  HistogramSnapshot histogram;      ///< kHistogram
};

struct RegistrySnapshot {
  std::vector<MetricSnapshot> metrics;  ///< registration order
};

/// Registry of labeled metric families. Registration takes a mutex and
/// validates names; re-registering an existing (name, labels) pair
/// returns the same metric, so independent components can share
/// families. Returned references stay valid for the registry's
/// lifetime.
class MetricRegistry {
 public:
  MetricRegistry();
  ~MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name, const std::string& help, Labels labels = {});
  Gauge& gauge(const std::string& name, const std::string& help, Labels labels = {});
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds, Labels labels = {});
  Histogram& exponential_histogram(const std::string& name, const std::string& help,
                                   double first_bound, double growth, int buckets,
                                   Labels labels = {});

  /// Reads every metric without stopping writers (relaxed loads; a
  /// snapshot taken mid-burst may be off by in-flight increments).
  RegistrySnapshot snapshot() const;

  // Test support: isolates metric state between tests.
  /// Zeroes every metric (families stay registered).
  void reset();

  // Test support: how many metrics are registered.
  std::size_t size() const;

 private:
  struct Entry;
  Entry& find_or_create(const std::string& name, const std::string& help, MetricKind kind,
                        const Labels& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

/// The process-wide default registry the instrumented subsystems
/// (migration engine, dcsim) record into.
MetricRegistry& registry();

}  // namespace wavm3::obs
