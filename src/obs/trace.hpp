// Tracer: nested spans and instant events into per-thread ring
// buffers, drained into Chrome trace-event JSON (load the file at
// ui.perfetto.dev or chrome://tracing).
//
// Hot-path contract:
//   * disabled (the default), an emit is one relaxed atomic load;
//   * enabled, an emit is a clock read plus ~a dozen relaxed atomic
//     word stores into the calling thread's own ring — no locks, no
//     allocation, bounded memory;
//   * a full ring wraps around, overwriting the oldest events; every
//     overwrite is counted (dropped()), never silent.
//
// The rings are seqlock-style: the writer publishes a per-ring
// sequence number with release order after storing the event words
// (all relaxed atomics, so concurrent drains are race-free under
// TSan); the drain re-checks the sequence after copying each slot and
// discards events the writer lapped mid-read.
//
// Events carry two timestamp domains, distinguished by pid:
//   kWallPid (1) - wall-clock events (serve request lifecycle), stamped
//                  via obs::now_ns();
//   kSimPid  (2) - simulated-time events (migration phases, dcsim
//                  rounds, fault instants), stamped by the caller from
//                  simulator time.
// Perfetto renders them as two processes, so a serve trace and the
// engine runs it triggered stay readable side by side.
//
// Event names, categories, and string argument values must be
// string literals (or otherwise outlive the tracer): only the pointer
// is stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/clock.hpp"

namespace wavm3::obs {

inline constexpr std::uint32_t kWallPid = 1;  ///< wall-clock track
inline constexpr std::uint32_t kSimPid = 2;   ///< simulated-time track

/// Simulated seconds as a kSimPid timestamp in ns (negative -> 0).
inline std::uint64_t sim_ns(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e9);
}

/// One numeric span/instant annotation.
struct TraceArg {
  const char* key = nullptr;
  double value = 0.0;
};

/// Chrome trace-event phases the tracer emits.
enum class EventPhase : std::uint8_t { kComplete, kInstant };

/// One recorded event. Trivially copyable: rings store events as raw
/// atomic words.
struct TraceEvent {
  static constexpr int kMaxArgs = 4;

  const char* name = nullptr;
  const char* category = nullptr;
  const char* str_key = nullptr;    ///< optional string annotation
  const char* str_value = nullptr;
  std::uint64_t ts_ns = 0;
  std::uint64_t dur_ns = 0;         ///< kComplete only
  TraceArg args[kMaxArgs] = {};
  std::uint32_t pid = kWallPid;
  std::uint32_t tid = 0;
  EventPhase phase = EventPhase::kComplete;
  std::uint8_t n_args = 0;
};

struct TracerConfig {
  /// Events retained per emitting thread before wraparound.
  std::size_t ring_capacity = 16384;
};

class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Emits a complete ("X") event with explicit timestamps. No-op when
  /// disabled.
  void emit_complete(const char* category, const char* name, std::uint64_t ts_ns,
                     std::uint64_t dur_ns, std::initializer_list<TraceArg> args = {},
                     const char* str_key = nullptr, const char* str_value = nullptr,
                     std::uint32_t pid = kWallPid);

  /// Emits an instant ("i") event. No-op when disabled.
  void emit_instant(const char* category, const char* name, std::uint64_t ts_ns,
                    std::initializer_list<TraceArg> args = {}, const char* str_key = nullptr,
                    const char* str_value = nullptr, std::uint32_t pid = kWallPid);

  /// RAII wall-clock span: stamps obs::now_ns() at construction and
  /// emits a complete event on destruction. Annotations added after
  /// construction ride along. Constructing against a disabled tracer
  /// costs one relaxed load and emits nothing.
  class Span {
   public:
    Span(Tracer& tracer, const char* category, const char* name)
        : tracer_(tracer.enabled() ? &tracer : nullptr), category_(category), name_(name) {
      if (tracer_ != nullptr) start_ns_ = clock_now();
    }
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    void arg(const char* key, double value) {
      if (tracer_ != nullptr && n_args_ < TraceEvent::kMaxArgs) {
        args_[n_args_++] = TraceArg{key, value};
      }
    }
    void note(const char* key, const char* value) {
      if (tracer_ != nullptr) {
        str_key_ = key;
        str_value_ = value;
      }
    }

   private:
    static std::uint64_t clock_now();

    Tracer* tracer_;
    const char* category_;
    const char* name_;
    const char* str_key_ = nullptr;
    const char* str_value_ = nullptr;
    std::uint64_t start_ns_ = 0;
    TraceArg args_[TraceEvent::kMaxArgs] = {};
    int n_args_ = 0;
  };

  Span span(const char* category, const char* name) { return Span(*this, category, name); }

  /// All currently retained events, timestamp-sorted. Safe to call
  /// while other threads emit; events the writers lap mid-copy are
  /// discarded (they were overwritten anyway).
  std::vector<TraceEvent> drain() const;

  /// Total events overwritten by ring wraparound across all threads.
  std::uint64_t dropped() const;

  /// Total events ever emitted (retained + dropped).
  std::uint64_t emitted() const;

  /// Serialises drain() as Chrome trace-event JSON ({"traceEvents":
  /// [...]}; timestamps in microseconds).
  std::string chrome_trace_json() const;

  /// Writes chrome_trace_json() to `path`; false when the file cannot
  /// be opened.
  bool write_chrome_trace(const std::string& path) const;

  /// Forgets all retained events and drop counts. Only call when no
  /// thread is emitting.
  void clear();

  const TracerConfig& config() const { return config_; }

 private:
  struct Ring;
  friend class Span;

  Ring& local_ring();
  void emit(const TraceEvent& event);

  TracerConfig config_;
  std::uint64_t id_;  ///< distinguishes tracers in thread-local caches
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;  ///< guards rings_ (registration + drain discovery)
  std::vector<std::shared_ptr<Ring>> rings_;
  std::atomic<std::uint32_t> next_tid_{1};
};

/// The process-wide default tracer all built-in instrumentation uses.
Tracer& tracer();

}  // namespace wavm3::obs

// Convenience macros for the built-in instrumentation. Define
// WAVM3_OBS_DISABLED to compile every span/instant out entirely
// (the overhead bench quantifies the difference; see
// bench_obs_overhead).
#ifndef WAVM3_OBS_DISABLED
#define WAVM3_OBS_SPAN(var, category, name) \
  ::wavm3::obs::Tracer::Span var(::wavm3::obs::tracer(), (category), (name))
#define WAVM3_OBS_INSTANT(category, name)                              \
  do {                                                                 \
    ::wavm3::obs::Tracer& wavm3_obs_t = ::wavm3::obs::tracer();        \
    if (wavm3_obs_t.enabled()) {                                       \
      wavm3_obs_t.emit_instant((category), (name), ::wavm3::obs::now_ns()); \
    }                                                                  \
  } while (false)
#else
namespace wavm3::obs {
/// Stand-in for Tracer::Span when instrumentation is compiled out.
struct NullSpan {
  void arg(const char*, double) {}
  void note(const char*, const char*) {}
};
}  // namespace wavm3::obs
#define WAVM3_OBS_SPAN(var, category, name) ::wavm3::obs::NullSpan var
#define WAVM3_OBS_INSTANT(category, name) \
  do {                                    \
  } while (false)
#endif
