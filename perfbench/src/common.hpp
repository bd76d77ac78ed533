// Shared pieces of the benchmark: the one fixed model every
// workload prices with, run options, result records, timing helpers
// and small statistics.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <initializer_list>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/planner.hpp"
#include "core/wavm3_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace wavm3::perfbench {

/// One reported number with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one path (serve, fleet, plan) measured. `attempted`/`failed`
/// count the path's operations; a failed output check is a failed op.
struct PathResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  /// Primary-client throughput (the obs overhead ratio compares it
  /// between the untraced and traced runs).
  double primary_rate = 0.0;
  MetricMap e2e;
  MetricMap layers;
  /// Seed-determined digests for the determinism self-test.
  std::map<std::string, std::string> digests;
  /// Program obs events captured by a traced run (Chrome trace).
  std::vector<obs::TraceEvent> trace_events;
};

/// The synthetic coefficient table bench_plan, bench_fleet,
/// bench_online_recalib and bench_chaos_soak share; `scale` perturbs
/// every coefficient (epoch publishes ship scaled copies).
core::Wavm3Model make_model(double scale = 1.0);

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ns_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// CPU time of one thread of this process. Unlike wall time it leaves
/// out the time the thread did not run: the kernel accounts hypervisor
/// steal apart from task time, and another thread holding the vCPU is
/// not this thread's time (see README.md for where it is used).
class ThreadCpuClock {
 public:
  /// The calling thread's clock (readable from any thread).
  static ThreadCpuClock self();
  /// The clock of the thread with kernel id `tid` in this process.
  static ThreadCpuClock of(int tid);
  /// Nanoseconds; NaN when the clock cannot be read.
  double ns() const;

 private:
  explicit ThreadCpuClock(clockid_t id) : id_(id) {}
  clockid_t id_;
};

/// Kernel ids of this process's threads, sorted.
std::vector<int> thread_ids();

/// Quantile of an unsorted sample (nearest rank on a sorted copy); 0
/// when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The measured window of a multi-threaded path, cut into kCount equal
/// sub-windows. Load threads tag each observation with current(). The
/// first sub-window is a warm-up (cold caches, a growing heap, an empty
/// result cache) and counts towards no figure (see README.md).
class SubWindows {
 public:
  static constexpr int kCount = 30;

  int current() const { return current_.load(std::memory_order_relaxed); }

  /// Sleeps through `seconds` in kCount steps; after step k, calls
  /// on_boundary(k, step_seconds). current() reads kCount afterwards.
  template <typename F>
  void run(double seconds, F&& on_boundary) {
    for (int k = 0; k < kCount; ++k) {
      const auto t0 = Clock::now();
      std::this_thread::sleep_for(std::chrono::duration<double>(seconds / kCount));
      current_.store(k + 1, std::memory_order_relaxed);
      on_boundary(k, seconds_since(t0));
    }
  }

  /// Whether sub-window k is past the warm-up.
  static bool measured(int k) { return k >= 1 && k < kCount; }

 private:
  std::atomic<int> current_{0};
};

/// Observations of one thread, bucketed by sub-window.
struct Windowed {
  std::array<std::vector<double>, SubWindows::kCount + 1> w;
  void add(int k, double v) { w[static_cast<std::size_t>(k)].push_back(v); }
};

/// A single-writer event counter another thread may read.
class OpCounter {
 public:
  void add(std::uint64_t n = 1) {
    v_.store(v_.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// `q` quantile of every observation of the series after the warm-up.
double pooled_quantile(std::initializer_list<const Windowed*> series, double q);
/// Mean of every observation of the series after the warm-up, leaving
/// out the slowest 1% (calls a stall of the vCPU held up).
double pooled_trimmed_mean(std::initializer_list<const Windowed*> series);
/// Lowest per-sub-window `q` quantile of the series after the warm-up:
/// the figure of the cleanest stretch (see README.md for where it is
/// used instead of pooled_quantile, and why).
double best_window_quantile(std::initializer_list<const Windowed*> series, double q);

/// Explicit CPU placement for the load threads, so that they do not
/// share a vCPU with each other (see README.md).
/// `slot` indexes the CPUs this process may use (modulo their count).
void pin_current_thread(int slot);
/// The same for the thread with kernel id `tid` in this process.
void pin_thread(int tid, int slot);
/// Pins the calling thread to every allowed CPU from `first_slot` on
/// (threads it creates inherit the set), or to all of them when
/// `first_slot` < 0.
void pin_current_thread_from(int first_slot);

/// The rate of a set of counters after the warm-up sub-window.
class RateMeter {
 public:
  /// Call at the end of sub-window k with the counters' current sum.
  void mark(int k, std::uint64_t total, double step_s) {
    if (SubWindows::measured(k)) {
      events_ += total - last_;
      seconds_ += step_s;
    }
    last_ = total;
  }
  /// Events over the time of every sub-window after the warm-up.
  double rate() const { return seconds_ > 0.0 ? static_cast<double>(events_) / seconds_ : 0.0; }

 private:
  std::uint64_t last_ = 0;
  std::uint64_t events_ = 0;
  double seconds_ = 0.0;
};

/// failed / attempted, floored at one failure per million operations:
/// a clean run reads the floor instead of 0.
double error_ratio(std::uint64_t failed, std::uint64_t attempted);

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

/// Sum over every series of the counter or gauge `name` in `registry`.
double registry_total(const obs::MetricRegistry& registry, const char* name);

/// Order-sensitive FNV-1a digest over the bit patterns of the values
/// added; hex() prints it.
class Digest {
 public:
  void add(double v);
  void add(std::uint64_t v);
  void add(const core::MigrationScenario& sc);
  void add(const core::MigrationForecast& fc);
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Relative distance |a - b| / max(|a|, |b|, 1).
double rel_diff(double a, double b);

/// True when two forecasts agree to `rel_tol` on every timing and
/// energy field.
bool forecasts_match(const core::MigrationForecast& a, const core::MigrationForecast& b,
                     double rel_tol);

/// Shadow timing of the core pricing stages on `scenarios` under
/// `model`: mean ns of core::forecast_timings and of core::attach_energy
/// per scenario.
struct CoreShadow {
  double forecast_timings_ns = 0.0;
  double attach_energy_ns = 0.0;
};
CoreShadow shadow_core(const core::Wavm3Model& model,
                       const std::vector<core::MigrationScenario>& scenarios);

/// Shadow timing of models::EnergyModel::predict_batch and of the
/// kernels::apply_design_matrix call under it, on the two synthetic
/// boundary observations per scenario that plan::score_batch builds.
struct ModelShadow {
  double predict_batch_ns_per_row = 0.0;
  double apply_ns_per_row = 0.0;
};
ModelShadow shadow_models(const core::Wavm3Model& model,
                          const std::vector<core::MigrationScenario>& scenarios);

}  // namespace wavm3::perfbench
