// Tracing for the per-layer (--trace 1) run.
//
// Two sources of spans, both kept in memory:
//   * benchmark spans (BenchSpan), opened in this directory around each
//     call into a public API and inside the rpc timing decorators. Each
//     thread keeps a span stack, so a span's self time (its duration
//     minus what its child spans cover) is exact and cheap; per-name
//     totals are aggregated on the fly and a bounded prefix of raw
//     events is kept for the Chrome trace.
//   * the program's own obs spans (plan/*, chaos/*, serve/*, calib/*),
//     drained from obs::tracer() by a background thread often enough
//     that its per-thread rings never lap the drain.
//
// With tracing off (every end-to-end run) a BenchSpan is one branch on
// a global flag and the obs tracer stays disabled.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"

namespace wavm3::perfbench {

/// Per-name span totals.
struct LayerStat {
  std::uint64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;

  double mean_ns() const { return count == 0 ? 0.0 : total_ns / static_cast<double>(count); }
  double mean_us() const { return mean_ns() / 1e3; }
};
using LayerStats = std::map<std::string, LayerStat>;

/// Whether this run traces. Set once, before any load thread starts.
void set_tracing(bool on);
bool tracing();

/// RAII benchmark span; a no-op while tracing is off. `name` must be a
/// string literal ("layer/operation").
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  bool active_;
};

/// Aggregated benchmark-span totals over every thread. Call only while
/// no thread opens spans.
LayerStats bench_span_stats();

/// Forgets all benchmark-span totals and raw events. Same condition.
void reset_bench_spans();

/// Drains obs::tracer() in the background while tracing is on, and
/// keeps every wall-clock event once (rings overlap between drains, so
/// each drain is deduplicated against the previous one).
class ObsCollector {
 public:
  ObsCollector() = default;
  ~ObsCollector();
  ObsCollector(const ObsCollector&) = delete;
  ObsCollector& operator=(const ObsCollector&) = delete;

  /// Clears and enables the obs tracer and starts draining (no-op
  /// unless tracing). Call while no thread emits.
  void start();
  /// Final drain, disables the tracer, joins the drainer.
  void stop();

  /// Per-name totals ("category/name") of the captured complete events,
  /// self times from per-thread interval nesting.
  LayerStats stats() const;
  /// Events the tracer recorded between start() and stop().
  std::uint64_t emitted() const { return emitted_; }
  /// Events overwritten in a ring before any drain copied them.
  std::uint64_t dropped() const { return emitted_ > captured_ ? emitted_ - captured_ : 0; }
  /// A bounded prefix of the captured events, for the Chrome trace.
  const std::vector<obs::TraceEvent>& kept_events() const { return kept_; }
  /// (start, duration) in ns of every captured "category/name" span,
  /// sorted by start.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals(const std::string& category,
                                                                 const std::string& name) const;

 private:
  struct Compact {
    const char* category;
    const char* name;
    std::uint32_t tid;
    std::uint64_t ts_ns;
    std::uint64_t dur_ns;
  };
  void drain_once();

  std::vector<Compact> events_;
  std::vector<obs::TraceEvent> kept_;
  std::vector<obs::TraceEvent> previous_;
  std::uint64_t captured_ = 0;
  std::uint64_t emitted_ = 0;
  std::atomic<bool> running_{false};
  std::thread drainer_;  ///< last: joins before the buffers go
};

/// Writes the kept benchmark spans plus `obs_events` as one Chrome
/// trace; false when the file cannot be written.
bool write_chrome_trace(const std::string& path, const std::vector<obs::TraceEvent>& obs_events);

}  // namespace wavm3::perfbench
