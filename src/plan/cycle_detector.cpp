#include "plan/cycle_detector.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/error.hpp"

namespace wavm3::plan {

CycleDetector::CycleDetector(CycleDetectorConfig config) : config_(config) {
  WAVM3_REQUIRE(config_.resample_points >= 16, "cycle detector needs >= 16 grid points");
  WAVM3_REQUIRE(config_.min_confidence > 0.0 && config_.min_confidence < 1.0,
                "min_confidence must be in (0, 1)");
  WAVM3_REQUIRE(config_.low_window_fraction > 0.0 && config_.low_window_fraction <= 0.5,
                "low_window_fraction must be in (0, 0.5]");
}

CycleEstimate CycleDetector::analyze(std::span<const double> t,
                                     std::span<const double> y) const {
  WAVM3_REQUIRE(t.size() == y.size(), "cycle detector: time/value size mismatch");
  CycleEstimate est;
  // Too short (or zero-span) to resample: the plain sample mean.
  if (t.size() < 8 || t.back() - t.front() <= 0.0) {
    if (!y.empty()) {
      for (const double v : y) est.overall_mean += v;
      est.overall_mean /= static_cast<double>(y.size());
    }
    return est;
  }
  const double span = t.back() - t.front();

  // Uniform analysis grid: stats::interp_at at every grid point, with
  // its bracketing sample found by one forward walk (the grid only
  // moves forward) instead of a binary search per point. The walk stops
  // at the first sample after the point, as interp_at's upper_bound
  // does, and the blend is interp_at's, so the grid is bit-equal.
  const std::size_t n = config_.resample_points;
  const double dt = span / static_cast<double>(n - 1);
  std::vector<double> x(n);
  double mean = 0.0;
  std::size_t hi = 1;
  for (std::size_t i = 0; i < n; ++i) {
    const double at = t.front() + static_cast<double>(i) * dt;
    if (at <= t.front()) {
      x[i] = y.front();
    } else if (at >= t.back()) {
      x[i] = y.back();
    } else {
      while (t[hi] <= at) ++hi;
      const std::size_t lo = hi - 1;
      const double f = (at - t[lo]) / (t[hi] - t[lo]);
      x[i] = y[lo] * (1.0 - f) + y[hi] * f;
    }
    mean += x[i];
  }
  mean /= static_cast<double>(n);
  est.overall_mean = mean;

  double var = 0.0;
  for (double& v : x) {
    v -= mean;
    var += v * v;
  }
  var /= static_cast<double>(n);
  // Flat trace: no cycle to exploit (avoid 0/0 in the normalized ACF).
  if (var <= 1e-12 * std::max(1.0, mean * mean)) return est;

  // Lag window.
  const double min_period = config_.min_period_s > 0.0 ? config_.min_period_s : 4.0 * dt;
  const double max_period = config_.max_period_s > 0.0
                                ? std::min(config_.max_period_s, 0.5 * span)
                                : 0.5 * span;
  const std::size_t lag_lo =
      std::max<std::size_t>(2, static_cast<std::size_t>(std::ceil(min_period / dt)));
  const std::size_t lag_hi =
      std::min(n / 2, static_cast<std::size_t>(std::floor(max_period / dt)));
  if (lag_lo >= lag_hi) return est;

  // Normalized autocorrelation over the lag window, kLanes lags at a
  // time: each lag's sum still accumulates in index order (bit-equal
  // to one lag at a time), but the independent add chains overlap
  // instead of waiting on each other's latency. Lag L sums n - L terms.
  constexpr std::size_t kLanes = 8;
  std::vector<double> acf(lag_hi + 1, 0.0);
  std::size_t lag = lag_lo;
  for (; lag + kLanes - 1 <= lag_hi; lag += kLanes) {
    double s[kLanes] = {};
    const std::size_t common = n - lag - (kLanes - 1);  // terms every lane sums
    for (std::size_t i = 0; i < common; ++i) {
      for (std::size_t k = 0; k < kLanes; ++k) s[k] += x[i] * x[i + lag + k];
    }
    for (std::size_t k = 0; k < kLanes; ++k) {
      for (std::size_t i = common; i + lag + k < n; ++i) s[k] += x[i] * x[i + lag + k];
      acf[lag + k] = s[k] / (static_cast<double>(n - lag - k) * var);
    }
  }
  for (; lag <= lag_hi; ++lag) {
    double sum = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) sum += x[i] * x[i + lag];
    acf[lag] = sum / (static_cast<double>(n - lag) * var);
  }

  // The ACF of any smooth signal starts near 1, so the initial
  // positive lobe is not evidence of a period. Search only past the
  // first zero crossing: a genuinely periodic (mean-removed) signal
  // anti-correlates at half its period, so the crossing exists inside
  // the lag window whenever >= 2 cycles were observed. Trends and
  // slow drifts never cross — correctly read as aperiodic.
  std::size_t search_lo = lag_lo;
  while (search_lo <= lag_hi && acf[search_lo] > 0.0) ++search_lo;
  if (search_lo > lag_hi) return est;

  // Fundamental period: among local ACF maxima past the crossing and
  // above the confidence threshold, prefer the smallest lag whose peak
  // is within 10% of the strongest — a harmonic at 2T correlates as
  // well as T, but the earliest near-best peak is the fundamental.
  double best_peak = 0.0;
  for (std::size_t lag = search_lo; lag <= lag_hi; ++lag) {
    best_peak = std::max(best_peak, acf[lag]);
  }
  if (best_peak < config_.min_confidence) return est;

  std::size_t best_lag = 0;
  for (std::size_t lag = search_lo; lag <= lag_hi; ++lag) {
    const bool local_max = (lag == search_lo || acf[lag] >= acf[lag - 1]) &&
                           (lag == lag_hi || acf[lag] >= acf[lag + 1]);
    if (!local_max) continue;
    if (acf[lag] >= config_.min_confidence && acf[lag] >= 0.9 * best_peak) {
      best_lag = lag;
      break;
    }
  }
  if (best_lag == 0) return est;

  est.periodic = true;
  est.confidence = acf[best_lag];
  est.period_s = static_cast<double>(best_lag) * dt;

  // Low window: fold the (mean-restored) grid at the period and find
  // the circular offset minimising the moving average over the window
  // length. Bins inherit the grid resolution.
  const std::size_t bins = best_lag;
  std::vector<double> folded(bins, 0.0);
  std::vector<std::size_t> counts(bins, 0);
  for (std::size_t i = 0, b = 0; i < n; ++i, b = b + 1 == bins ? 0 : b + 1) {
    folded[b] += x[i] + mean;
    ++counts[b];
  }
  for (std::size_t b = 0; b < bins; ++b) {
    folded[b] /= static_cast<double>(std::max<std::size_t>(1, counts[b]));
  }

  const std::size_t win =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::round(
                                   config_.low_window_fraction * static_cast<double>(bins))));
  double best_sum = 0.0;
  std::size_t best_off = 0;
  for (std::size_t off = 0; off < bins; ++off) {
    // Summed afresh per offset (not slid), so every window total is
    // rounded the same way whatever its offset; b wraps at bins.
    double sum = 0.0;
    for (std::size_t k = 0, b = off; k < win; ++k, b = b + 1 == bins ? 0 : b + 1) {
      sum += folded[b];
    }
    if (off == 0 || sum < best_sum) {
      best_sum = sum;
      best_off = off;
    }
  }

  est.low_duration_s = static_cast<double>(win) * dt;
  est.low_mean = best_sum / static_cast<double>(win);
  est.low_anchor_s = t.front() + static_cast<double>(best_off) * dt;
  return est;
}

double CycleDetector::next_low_window_start(const CycleEstimate& e, double now) {
  WAVM3_REQUIRE(e.periodic && e.period_s > 0.0,
                "next_low_window_start needs a periodic estimate");
  if (now <= e.low_anchor_s) return e.low_anchor_s;
  const double periods = std::ceil((now - e.low_anchor_s) / e.period_s);
  return e.low_anchor_s + periods * e.period_s;
}

}  // namespace wavm3::plan
