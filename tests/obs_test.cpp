// Tests for src/obs/: metric registry semantics, histogram edge
// cases (bucket boundaries, overflow, quantile interpolation), the
// injectable clock, the seqlock trace rings under heavy concurrent
// emission (wraparound + drop accounting), and the three exporters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/clock.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wavm3::obs {
namespace {

// ---------------------------------------------------------------------------
// Counters and gauges

TEST(ObsMetrics, CounterIncrementsAndResets) {
  MetricRegistry reg;
  Counter& c = reg.counter("requests_total", "requests");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, GaugeSetAndAdd) {
  MetricRegistry reg;
  Gauge& g = reg.gauge("queue_depth", "depth");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(1.25);
  g.add(-0.75);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(ObsMetrics, SameNameAndLabelsReturnsSameMetric) {
  MetricRegistry reg;
  Counter& a = reg.counter("hits_total", "hits", {{"shard", "0"}});
  Counter& b = reg.counter("hits_total", "hits", {{"shard", "0"}});
  Counter& other = reg.counter("hits_total", "hits", {{"shard", "1"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(other.value(), 0u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsMetrics, SnapshotPreservesRegistrationOrderAndLabels) {
  MetricRegistry reg;
  reg.counter("b_total", "b");
  reg.gauge("a_gauge", "a", {{"k", "v"}});
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.metrics.size(), 2u);
  EXPECT_EQ(snap.metrics[0].name, "b_total");
  EXPECT_EQ(snap.metrics[1].name, "a_gauge");
  ASSERT_EQ(snap.metrics[1].labels.size(), 1u);
  EXPECT_EQ(snap.metrics[1].labels[0].first, "k");
  EXPECT_EQ(snap.metrics[1].labels[0].second, "v");
}

// ---------------------------------------------------------------------------
// Histogram edge cases

TEST(ObsHistogram, ExplicitBoundsBucketBoundariesAreInclusive) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", "h", {1.0, 2.0, 4.0});
  // A value exactly on an upper edge lands in that bucket (le
  // semantics), the canonical Prometheus rule.
  h.observe(1.0);
  h.observe(2.0);
  h.observe(4.0);
  h.observe(0.5);   // first bucket
  h.observe(3.0);   // third bucket
  h.observe(100.0); // overflow
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(s.counts[1], 1u);  // 2.0
  EXPECT_EQ(s.counts[2], 2u);  // 3.0, 4.0
  EXPECT_EQ(s.counts[3], 1u);  // 100.0 overflow
  EXPECT_EQ(s.count, 6u);
  EXPECT_DOUBLE_EQ(s.sum, 1.0 + 2.0 + 4.0 + 0.5 + 3.0 + 100.0);
}

TEST(ObsHistogram, ExponentialGridMatchesLogIndexing) {
  // The serve latency grid: 1000 * 1.046^i, 400 buckets.
  MetricRegistry reg;
  Histogram& h = reg.exponential_histogram("lat_ns", "latency", 1000.0, 1.046, 400);
  h.observe(500.0);    // below first bound -> bucket 0
  h.observe(1000.0);   // exactly first bound -> bucket 0
  h.observe(1000.1);   // just above -> bucket 1
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  ASSERT_EQ(s.bounds.size(), 399u);
  EXPECT_DOUBLE_EQ(s.bounds[0], 1000.0);
  EXPECT_NEAR(s.bounds[1], 1046.0, 1e-9);
  // The overflow bucket reports the growth-extrapolated edge.
  EXPECT_NEAR(s.overflow_bound, 1000.0 * std::pow(1.046, 399.0), 1e-3);
}

TEST(ObsHistogram, ObserveNMatchesRepeatedObserve) {
  // Exactly representable values, so v * n is exact and sum() matches
  // n separate additions too. Exponential and explicit grids, a
  // negative value (clamped to 0), overflow, and n = 0 (a no-op).
  MetricRegistry reg;
  Histogram& one_by_one = reg.exponential_histogram("a", "a", 1000.0, 1.046, 400);
  Histogram& batched = reg.exponential_histogram("b", "b", 1000.0, 1.046, 400);
  Histogram& one_by_one_explicit = reg.histogram("c", "c", {1.0, 2.0, 4.0});
  Histogram& batched_explicit = reg.histogram("d", "d", {1.0, 2.0, 4.0});
  const std::pair<double, std::uint64_t> runs[] = {
      {1536.5, 64}, {250.0, 3}, {-2.0, 5}, {2.0, 17}, {1e30, 2}, {3.0, 0}, {4096.25, 1}};
  for (const auto& [v, n] : runs) {
    for (std::uint64_t i = 0; i < n; ++i) {
      one_by_one.observe(v);
      one_by_one_explicit.observe(v);
    }
    batched.observe_n(v, n);
    batched_explicit.observe_n(v, n);
  }
  for (const auto& [a, b] : {std::pair{&one_by_one, &batched},
                             std::pair{&one_by_one_explicit, &batched_explicit}}) {
    const HistogramSnapshot sa = a->snapshot();
    const HistogramSnapshot sb = b->snapshot();
    EXPECT_EQ(sa.counts, sb.counts);
    EXPECT_EQ(a->count(), b->count());
    EXPECT_EQ(a->sum(), b->sum());
    EXPECT_EQ(b->count(), 92u);
  }
}

TEST(ObsHistogram, OverflowValuesLandInOverflowBucket) {
  MetricRegistry reg;
  Histogram& h = reg.exponential_histogram("lat_ns", "latency", 1000.0, 1.046, 4);
  const double top = 1000.0 * std::pow(1.046, 2.0);  // last finite edge (3 edges: i=0..2)
  h.observe(top * 1000.0);
  h.observe(1e18);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.counts.back(), 2u);
  // Conservative quantile of an overflow recording reports the
  // overflow bound, never infinity.
  EXPECT_DOUBLE_EQ(s.quantile_upper_bound(1.0), s.overflow_bound);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), s.overflow_bound);
}

TEST(ObsHistogram, QuantilesOnEmptyHistogramAreZero) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", "h", {1.0, 2.0});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile_upper_bound(0.99), 0.0);
}

TEST(ObsHistogram, InterpolatedQuantileWalksInsideBucket) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", "h", {10.0, 20.0});
  // 10 recordings in (10, 20]: the interpolated median sits mid-bucket,
  // the conservative one at the upper edge.
  for (int i = 0; i < 10; ++i) h.observe(15.0);
  const HistogramSnapshot s = h.snapshot();
  const double interpolated = s.quantile(0.5);
  EXPECT_GT(interpolated, 10.0);
  EXPECT_LT(interpolated, 20.0);
  EXPECT_DOUBLE_EQ(s.quantile_upper_bound(0.5), 20.0);
  // q clamps: q=0 stays at the bucket's lower edge or below, q=1 at
  // the upper edge.
  EXPECT_LE(s.quantile(0.0), 20.0);
  EXPECT_DOUBLE_EQ(s.quantile_upper_bound(1.0), 20.0);
}

TEST(ObsHistogram, ConservativeQuantileMatchesLegacyServeRule) {
  // Reference implementation of the rule serve/metrics.cpp has always
  // used: upper edge of the bucket holding the ceil(q*n)-th recording.
  MetricRegistry reg;
  Histogram& h = reg.exponential_histogram("lat_ns", "latency", 1000.0, 1.046, 400);
  std::vector<double> values;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 5000; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift64
    values.push_back(1000.0 + static_cast<double>(x % 20000000));  // up to 20ms
  }
  for (double v : values) h.observe(v);

  const auto legacy_bucket_index = [](double ns) {
    if (ns <= 1000.0) return 0;
    static const double inv_log_growth = 1.0 / std::log(1.046);
    const int idx = static_cast<int>(std::log(ns / 1000.0) * inv_log_growth) + 1;
    return std::min(idx, 399);
  };
  const auto legacy_quantile = [&](double q) {
    std::uint64_t counts[400] = {};
    for (double v : values) ++counts[legacy_bucket_index(v)];
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(values.size())));
    std::uint64_t seen = 0;
    for (int i = 0; i < 400; ++i) {
      seen += counts[i];
      if (seen >= rank) return 1000.0 * std::pow(1.046, static_cast<double>(i));
    }
    return 1000.0 * std::pow(1.046, 399.0);
  };

  const HistogramSnapshot s = h.snapshot();
  for (double q : {0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(s.quantile_upper_bound(q), legacy_quantile(q)) << "q=" << q;
  }
}

TEST(ObsHistogram, ResetZeroesEverything) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", "h", {1.0});
  h.observe(0.5);
  h.observe(2.0);
  h.reset();
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  for (std::uint64_t c : s.counts) EXPECT_EQ(c, 0u);
}

// ---------------------------------------------------------------------------
// Clock

TEST(ObsClock, ManualClockFreezesAndAdvances) {
  ManualClock::install(100);
  EXPECT_EQ(now_ns(), 100u);
  ManualClock::advance(50);
  EXPECT_EQ(now_ns(), 150u);
  ManualClock::set(1000);
  EXPECT_EQ(now_ns(), 1000u);
  ManualClock::uninstall();
  // Steady clock is monotone and nonzero.
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_GE(b, a);
  EXPECT_GT(a, 0u);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(ObsTrace, DisabledTracerEmitsNothing) {
  Tracer t;
  t.set_enabled(false);
  { Tracer::Span span(t, "cat", "op"); }
  t.emit_instant("cat", "tick", 123);
  EXPECT_TRUE(t.drain().empty());
  EXPECT_EQ(t.emitted(), 0u);
}

TEST(ObsTrace, SpanRecordsDurationAndArgs) {
  ManualClock::install(1000);
  Tracer t;
  t.set_enabled(true);
  {
    Tracer::Span span(t, "serve", "evaluate");
    span.arg("items", 3.0);
    span.note("source", "cache");
    ManualClock::advance(5000);
  }
  const std::vector<TraceEvent> events = t.drain();
  ManualClock::uninstall();
  ASSERT_EQ(events.size(), 1u);
  const TraceEvent& e = events[0];
  EXPECT_STREQ(e.name, "evaluate");
  EXPECT_STREQ(e.category, "serve");
  EXPECT_EQ(e.phase, EventPhase::kComplete);
  EXPECT_EQ(e.ts_ns, 1000u);
  EXPECT_EQ(e.dur_ns, 5000u);
  ASSERT_EQ(e.n_args, 1);
  EXPECT_STREQ(e.args[0].key, "items");
  EXPECT_DOUBLE_EQ(e.args[0].value, 3.0);
  EXPECT_STREQ(e.str_key, "source");
  EXPECT_STREQ(e.str_value, "cache");
  EXPECT_EQ(e.pid, kWallPid);
}

TEST(ObsTrace, ExplicitTimestampEventsSortByTime) {
  Tracer t;
  t.set_enabled(true);
  t.emit_complete("sim", "late", 5000, 100, {}, nullptr, nullptr, kSimPid);
  t.emit_instant("sim", "early", 1000, {}, nullptr, nullptr, kSimPid);
  const std::vector<TraceEvent> events = t.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "early");
  EXPECT_STREQ(events[1].name, "late");
  EXPECT_EQ(events[0].pid, kSimPid);
}

TEST(ObsTrace, WraparoundKeepsNewestAndCountsDrops) {
  Tracer t(TracerConfig{/*ring_capacity=*/64});
  t.set_enabled(true);
  for (int i = 0; i < 200; ++i) {
    t.emit_instant("cat", "tick", static_cast<std::uint64_t>(i));
  }
  const std::vector<TraceEvent> events = t.drain();
  EXPECT_EQ(events.size(), 64u);
  EXPECT_EQ(t.emitted(), 200u);
  EXPECT_EQ(t.dropped(), 200u - 64u);
  // The retained events are exactly the newest 64.
  EXPECT_EQ(events.front().ts_ns, 200u - 64u);
  EXPECT_EQ(events.back().ts_ns, 199u);
}

TEST(ObsTrace, ClearForgetsEventsAndDrops) {
  Tracer t(TracerConfig{/*ring_capacity=*/16});
  t.set_enabled(true);
  for (int i = 0; i < 40; ++i) t.emit_instant("cat", "tick", 1);
  t.clear();
  EXPECT_TRUE(t.drain().empty());
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.emitted(), 0u);
}

TEST(ObsTrace, ConcurrentEmissionFromManyThreadsIsLossAccounted) {
  // >= 8 threads hammering small rings while a reader drains
  // concurrently: every event is either retained or counted dropped,
  // nothing double-counted, and drained events are never torn (the
  // seqlock re-check discards lapped slots).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  constexpr std::size_t kRing = 256;
  Tracer t(TracerConfig{kRing});
  t.set_enabled(true);

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      while (!go.load(std::memory_order_acquire)) {}
      for (int i = 0; i < kPerThread; ++i) {
        // ts encodes (writer, seq) so a torn read would produce a
        // value no writer ever stored.
        t.emit_instant("stress", "tick",
                       static_cast<std::uint64_t>(w) * 1000000u +
                           static_cast<std::uint64_t>(i),
                       {{"w", static_cast<double>(w)}});
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);
  // Drain concurrently while writers run — must not crash or tear.
  while (done.load(std::memory_order_acquire) < kThreads) {
    (void)t.drain();
  }
  for (std::thread& w : writers) w.join();

  const std::vector<TraceEvent> events = t.drain();
  EXPECT_EQ(t.emitted(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(t.emitted(), t.dropped() + events.size());
  // Per-thread rings retain the newest kRing events of each writer.
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kRing);

  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) {
    ASSERT_STREQ(e.name, "tick");
    ASSERT_STREQ(e.category, "stress");
    tids.insert(e.tid);
    // No torn events: the encoded writer id and the numeric arg agree,
    // and the sequence number is one the writer actually produced.
    const auto w = static_cast<int>(e.ts_ns / 1000000u);
    const auto i = static_cast<int>(e.ts_ns % 1000000u);
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kThreads);
    ASSERT_LT(i, kPerThread);
    ASSERT_GE(i, kPerThread - static_cast<int>(kRing));  // newest kRing survive
    ASSERT_EQ(e.n_args, 1);
    ASSERT_DOUBLE_EQ(e.args[0].value, static_cast<double>(w));
  }
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Exporters

TEST(ObsExport, PrometheusTextFormat) {
  MetricRegistry reg;
  reg.counter("requests_total", "Total requests", {{"endpoint", "predict"}}).inc(7);
  reg.counter("requests_total", "Total requests", {{"endpoint", "submit"}}).inc(2);
  reg.gauge("queue_depth", "Queue depth").set(3);
  reg.histogram("latency_ns", "Latency", {10.0, 20.0}).observe(15.0);

  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# HELP requests_total Total requests\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE requests_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{endpoint=\"predict\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("requests_total{endpoint=\"submit\"} 2\n"), std::string::npos);
  // HELP/TYPE appear once per family, not per series.
  EXPECT_EQ(text.find("# HELP requests_total"),
            text.rfind("# HELP requests_total"));
  EXPECT_NE(text.find("# TYPE queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("queue_depth 3\n"), std::string::npos);
  // Histograms: cumulative buckets, +Inf terminator, _sum/_count.
  EXPECT_NE(text.find("latency_ns_bucket{le=\"10\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"20\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_sum 15\n"), std::string::npos);
  EXPECT_NE(text.find("latency_ns_count 1\n"), std::string::npos);
  // Every non-comment line is "name{labels} value" or "name value".
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
    const std::string line = text.substr(pos, eol - pos);
    if (!line.empty() && line[0] != '#') {
      const std::size_t sp = line.rfind(' ');
      ASSERT_NE(sp, std::string::npos) << line;
      ASSERT_GT(sp, 0u) << line;
    }
    pos = eol + 1;
  }
}

TEST(ObsExport, PrometheusEscapesLabelValues) {
  MetricRegistry reg;
  reg.counter("c_total", "c", {{"path", "a\"b\\c\nd"}}).inc();
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("c_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"), std::string::npos);
}

TEST(ObsExport, JsonSnapshotIsWellFormed) {
  MetricRegistry reg;
  reg.counter("requests_total", "Total", {{"ep", "x"}}).inc(3);
  reg.histogram("lat", "Latency", {1.0, 2.0}).observe(1.5);
  const std::string json = json_snapshot(reg);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"requests_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
  EXPECT_NE(json.find("\"le\":\"+Inf\""), std::string::npos);
  // Balanced braces/brackets (cheap structural check without a parser).
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') { ++i; continue; }
      if (ch == '"') in_string = false;
      continue;
    }
    if (ch == '"') in_string = true;
    else if (ch == '{') ++braces;
    else if (ch == '}') --braces;
    else if (ch == '[') ++brackets;
    else if (ch == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ObsExport, ChromeTraceStructure) {
  Tracer t;
  t.set_enabled(true);
  t.emit_complete("migration", "transfer", 2000, 3000, {{"DR", 1.5}}, "outcome",
                  "completed", kSimPid);
  t.emit_instant("faults", "link_degradation", 1000, {{"factor", 0.4}}, nullptr, nullptr,
                 kSimPid);
  const std::string json = chrome_trace(t.drain());
  // Metadata rows name both tracks.
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("wall clock"), std::string::npos);
  EXPECT_NE(json.find("simulated time"), std::string::npos);
  // Timestamps in µs: 2000 ns -> 2, duration 3000 ns -> 3.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":3"), std::string::npos);
  EXPECT_NE(json.find("\"DR\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"completed\""), std::string::npos);
  // Instants are thread-scoped.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(ObsExport, ByteStableUnderManualClock) {
  // With the clock pinned, two identical runs produce identical
  // exporter output — the property the CLI's --metrics-out and the
  // serve CSV regression rely on.
  const auto run = [] {
    ManualClock::install(5000);
    MetricRegistry reg;
    reg.counter("ops_total", "ops").inc(9);
    Tracer t;
    t.set_enabled(true);
    {
      Tracer::Span span(t, "cat", "op");
      ManualClock::advance(1234);
    }
    const std::string out = prometheus_text(reg) + chrome_trace(t.drain());
    ManualClock::uninstall();
    return out;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace wavm3::obs
