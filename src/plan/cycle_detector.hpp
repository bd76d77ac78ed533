// Workload-cycle detection over per-VM utilisation histories, after
// Baruchi et al., "Exploiting Workload Cycles for Orchestration of VM
// Live Migrations": many workloads repeat with a stable period
// (diurnal load, batch windows), and migrating during the low-dirtying
// part of the cycle shrinks the pre-copy traffic — and with it the
// migration's energy.
//
// The detector resamples an (irregularly) sampled history onto a
// uniform grid, computes the normalized autocorrelation over a lag
// window, and takes the fundamental period from the strongest early
// ACF peak. The low-dirtying window is then located by folding the
// signal at the detected period and minimising a circular moving
// average — the planner schedules migration start times into the next
// occurrence of that window.
//
// The lag sums and the window sums run in packed two-wide lanes (SSE2
// on x86-64, NEON on aarch64), yet every sum starts at 0.0 and adds
// its terms in ascending index order, so an estimate is bit-identical
// to the one-lag-at-a-time, modulo-folding computation (pinned field
// by field in plan_test).
#pragma once

#include <cstddef>
#include <span>

namespace wavm3::plan {

struct CycleDetectorConfig {
  /// Periods outside [min_period_s, max_period_s] are not searched.
  /// 0 means "derive from the data": min = 4 grid steps, max = half
  /// the history span (shorter histories cannot support a detection).
  double min_period_s = 0.0;
  double max_period_s = 0.0;
  /// Minimum normalized ACF peak (in [-1, 1]) to call a trace
  /// periodic. Flat and white-noise traces stay well below this.
  double min_confidence = 0.35;
  /// Uniform resampling resolution of the analysis grid.
  std::size_t resample_points = 256;
  /// Length of the reported low window as a fraction of the period.
  double low_window_fraction = 0.25;

  bool operator==(const CycleDetectorConfig&) const = default;
};

/// What analyze() found in one trace.
struct CycleEstimate {
  bool periodic = false;
  double period_s = 0.0;     ///< fundamental period, seconds
  double confidence = 0.0;   ///< ACF peak value, [-1, 1]
  /// Absolute time (same axis as the analyzed history) of one start of
  /// the low-signal window; later occurrences repeat every period_s.
  double low_anchor_s = 0.0;
  double low_duration_s = 0.0;
  double low_mean = 0.0;     ///< mean signal inside the low window
  double overall_mean = 0.0; ///< mean signal over the history
};

class CycleDetector {
 public:
  explicit CycleDetector(CycleDetectorConfig config = {});

  const CycleDetectorConfig& config() const { return config_; }

  /// Analyzes one sampled signal y(t) (typically a VM's dirtying-rate
  /// history; times non-decreasing). Returns a non-periodic estimate
  /// (with overall_mean still filled) when the trace is too short,
  /// flat, or shows no autocorrelation peak above min_confidence.
  CycleEstimate analyze(std::span<const double> t, std::span<const double> y) const;

  /// First start time >= now of the low window. Requires a periodic
  /// estimate.
  static double next_low_window_start(const CycleEstimate& e, double now);

 private:
  CycleDetectorConfig config_;
};

}  // namespace wavm3::plan
