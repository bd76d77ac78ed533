#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wavm3::obs {

namespace {

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

bool valid_label_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (i > 0 && digit))) return false;
  }
  return true;
}

}  // namespace

const char* to_string(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void Gauge::add(double d) {
  double cur = v_.load(std::memory_order_relaxed);
  while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  WAVM3_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket bound");
  WAVM3_REQUIRE(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                    std::adjacent_find(bounds_.begin(), bounds_.end()) == bounds_.end(),
                "histogram bounds must be strictly ascending");
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  overflow_bound_ = bounds_.back();
}

Histogram::Histogram(double first_bound, double growth, int buckets) {
  WAVM3_REQUIRE(first_bound > 0.0 && growth > 1.0 && buckets >= 2,
                "exponential histogram needs first_bound > 0, growth > 1, buckets >= 2");
  exponential_ = true;
  first_bound_ = first_bound;
  inv_log_growth_ = 1.0 / std::log(growth);
  bounds_.reserve(static_cast<std::size_t>(buckets) - 1);
  for (int i = 0; i + 1 < buckets; ++i) {
    bounds_.push_back(first_bound * std::pow(growth, static_cast<double>(i)));
  }
  overflow_bound_ = first_bound * std::pow(growth, static_cast<double>(buckets - 1));
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

std::size_t Histogram::bucket_index(double v) const {
  if (exponential_) {
    // One log() instead of a binary search; a value within rounding
    // of an edge may land in the neighbouring bucket.
    if (v <= first_bound_) return 0;
    const auto idx = static_cast<std::size_t>(std::log(v / first_bound_) * inv_log_growth_) + 1;
    return std::min(idx, bounds_.size());
  }
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double v) { observe_n(v, 1); }

void Histogram::observe_n(double v, std::uint64_t n) {
  if (n == 0) return;
  const double x = std::max(0.0, v);
  buckets_[bucket_index(x)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  const double total = x * static_cast<double>(n);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + total, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.bounds = bounds_;
  s.counts.resize(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    s.counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  s.count = count();
  s.sum = sum();
  s.overflow_bound = overflow_bound_;
  return s;
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

double HistogramSnapshot::quantile(double q) const {
  // The snapshot's own bucket total is the authoritative population:
  // `count` may lag the buckets when writers race the reader.
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const double target = clamped * static_cast<double>(n);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const auto before = static_cast<double>(seen);
    seen += counts[i];
    if (static_cast<double>(seen) < target) continue;
    if (i == counts.size() - 1) return overflow_bound;
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    const double frac = (target - before) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return overflow_bound;
}

double HistogramSnapshot::quantile_upper_bound(double q) const {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  const auto rank =
      static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return i == counts.size() - 1 ? overflow_bound : bounds[i];
  }
  return overflow_bound;
}

struct MetricRegistry::Entry {
  std::string name;
  std::string help;
  MetricKind kind;
  Labels labels;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

MetricRegistry::MetricRegistry() = default;
MetricRegistry::~MetricRegistry() = default;

MetricRegistry::Entry& MetricRegistry::find_or_create(const std::string& name,
                                                      const std::string& help,
                                                      MetricKind kind, const Labels& labels) {
  WAVM3_REQUIRE(valid_metric_name(name), "invalid metric name: " + name);
  for (const auto& [k, v] : labels) {
    WAVM3_REQUIRE(valid_label_name(k), "invalid label name: " + k);
    (void)v;
  }
  for (const auto& e : entries_) {
    if (e->name != name) continue;
    WAVM3_REQUIRE(e->kind == kind,
                  "metric family " + name + " re-registered with a different kind");
    if (e->labels == labels) return *e;
  }
  auto e = std::make_unique<Entry>();
  e->name = name;
  e->help = help;
  e->kind = kind;
  e->labels = labels;
  entries_.push_back(std::move(e));
  return *entries_.back();
}

Counter& MetricRegistry::counter(const std::string& name, const std::string& help,
                                 Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, MetricKind::kCounter, labels);
  if (e.counter == nullptr) e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const std::string& help, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, MetricKind::kGauge, labels);
  if (e.gauge == nullptr) e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name, const std::string& help,
                                     std::vector<double> bounds, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, MetricKind::kHistogram, labels);
  if (e.histogram == nullptr) e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

Histogram& MetricRegistry::exponential_histogram(const std::string& name,
                                                 const std::string& help, double first_bound,
                                                 double growth, int buckets, Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = find_or_create(name, help, MetricKind::kHistogram, labels);
  if (e.histogram == nullptr) {
    e.histogram = std::make_unique<Histogram>(first_bound, growth, buckets);
  }
  return *e.histogram;
}

RegistrySnapshot MetricRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  RegistrySnapshot out;
  out.metrics.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSnapshot m;
    m.name = e->name;
    m.help = e->help;
    m.kind = e->kind;
    m.labels = e->labels;
    switch (e->kind) {
      case MetricKind::kCounter: m.counter_value = e->counter->value(); break;
      case MetricKind::kGauge: m.gauge_value = e->gauge->value(); break;
      case MetricKind::kHistogram: m.histogram = e->histogram->snapshot(); break;
    }
    out.metrics.push_back(std::move(m));
  }
  return out;
}

void MetricRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& e : entries_) {
    switch (e->kind) {
      case MetricKind::kCounter: e->counter->reset(); break;
      case MetricKind::kGauge: e->gauge->reset(); break;
      case MetricKind::kHistogram: e->histogram->reset(); break;
    }
  }
}

std::size_t MetricRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

MetricRegistry& registry() {
  static MetricRegistry instance;
  return instance;
}

}  // namespace wavm3::obs
