// Injectable monotonic clock for the observability layer. Every
// timestamp the tracer or the metric registry takes flows through
// now_ns(), so tests (and anything else that needs reproducible
// timelines) can pin time with ManualClock and get byte-stable
// exporter output. The default clock is std::chrono::steady_clock;
// reading it costs one relaxed atomic load plus the clock syscall.
#pragma once

#include <cstdint>

namespace wavm3::obs {

/// Nanosecond clock function. Must be monotonic per thread.
using ClockFn = std::uint64_t (*)();

/// The real clock: steady_clock nanoseconds since an arbitrary epoch.
std::uint64_t steady_now_ns();

// Test support: no production binary installs a clock.
/// Installs `fn` as the process-wide observability clock (nullptr
/// restores the steady clock). Not meant for the hot path — call at
/// setup or in tests.
void set_clock(ClockFn fn);

/// Current observability time in nanoseconds.
std::uint64_t now_ns();

// Test support: the clock tests pin time with.
/// Test clock: a process-wide manual time source. install() routes
/// now_ns() through an atomic counter that only advance()/set() move,
/// so latencies and QPS denominators become deterministic. Always
/// uninstall() afterwards (fixtures should do this in TearDown).
class ManualClock {
 public:
  static void install(std::uint64_t start_ns = 0);
  static void uninstall();
  static void set(std::uint64_t ns);
  static void advance(std::uint64_t ns);
  static std::uint64_t read();
};

}  // namespace wavm3::obs
