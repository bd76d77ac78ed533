#include "plan/cycle_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace wavm3::plan {

namespace {

// Two doubles in one register: GCC and Clang lower the element-wise
// operators to packed SSE2 (baseline x86-64) or NEON (aarch64) adds
// and multiplies, and each lane rounds exactly like the scalar
// operation (the library builds with -ffp-contract=off, so no a*b+c
// fuses into an FMA). A loop over a fixed number of these, fully
// unrolled, keeps its accumulators in registers.
typedef double Lane2 __attribute__((vector_size(16)));

Lane2 load2(const double* p) {
  Lane2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Sums x[i] * x[i + L] for the lags L in [lag, lag_hi], 2V lags per
/// block while a whole block fits: lane pair k holds lags lag + 2k and
/// lag + 2k + 1, so the x[i + L] of a pair are one contiguous load.
/// Every lag sums from 0.0 in ascending i, as one lag at a time would;
/// the terms only the shorter lags of a block have finish in scalar.
/// Writes out[L] and returns the first lag not summed.
template <std::size_t V>
std::size_t lag_sums(const double* x, std::size_t n, std::size_t lag, std::size_t lag_hi,
                     double* out) {
  constexpr std::size_t kWidth = 2 * V;
  for (; lag + kWidth - 1 <= lag_hi; lag += kWidth) {
    Lane2 acc[V] = {};
    const std::size_t common = n - lag - (kWidth - 1);  // terms every lag sums
    for (std::size_t i = 0; i < common; ++i) {
      const Lane2 xi = {x[i], x[i]};
#pragma GCC unroll 8
      for (std::size_t k = 0; k < V; ++k) acc[k] += xi * load2(x + i + lag + 2 * k);
    }
#pragma GCC unroll 8
    for (std::size_t k = 0; k < 2 * V; ++k) {
      const std::size_t l = lag + k;
      double sum = acc[k / 2][k % 2];
      for (std::size_t i = common; i + l < n; ++i) sum += x[i] * x[i + l];
      out[l] = sum;
    }
  }
  return lag;
}

/// Sums ring[off + k] over k in [0, win) for the offsets in
/// [off, offsets), 2V offsets per block while a whole block fits: lane
/// pair j holds offsets off + 2j and off + 2j + 1. Every sum starts at
/// 0.0 and adds in ascending k, as the scalar loop does. `ring` must
/// hold offsets + win - 1 values. Writes out[off] and returns the
/// first offset not summed.
template <std::size_t V>
std::size_t window_sums(const double* ring, std::size_t win, std::size_t off,
                        std::size_t offsets, double* out) {
  constexpr std::size_t kWidth = 2 * V;
  for (; off + kWidth <= offsets; off += kWidth) {
    Lane2 acc[V] = {};
    for (std::size_t k = 0; k < win; ++k) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < V; ++j) acc[j] += load2(ring + off + 2 * j + k);
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < V; ++j) std::memcpy(out + off + 2 * j, &acc[j], sizeof acc[j]);
  }
  return off;
}

}  // namespace

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

  // Normalized autocorrelation over the lag window. Lag L sums the
  // n - L terms x[i] * x[i + L] from 0.0 in ascending i, whether it is
  // summed in a packed lane (lag_sums) or in the scalar loop below.
  std::vector<double> acf(lag_hi + 1, 0.0);
  std::size_t lag = lag_sums<4>(x.data(), n, lag_lo, lag_hi, acf.data());
  lag = lag_sums<2>(x.data(), n, lag, lag_hi, acf.data());
  lag = lag_sums<1>(x.data(), n, lag, lag_hi, acf.data());
  for (; lag <= lag_hi; ++lag) {
    double sum = 0.0;
    for (std::size_t i = 0; i + lag < n; ++i) sum += x[i] * x[i + lag];
    acf[lag] = sum;
  }
  for (std::size_t l = lag_lo; l <= lag_hi; ++l) {
    acf[l] /= static_cast<double>(n - l) * var;
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
  // length. Bins inherit the grid resolution; bin b holds the grid
  // points i with i % bins == b. The folded cycle is stored twice over
  // so that a window starting near the end reads on without wrapping.
  const std::size_t bins = best_lag;
  std::vector<double> folded(2 * bins, 0.0);
  for (std::size_t i = 0, b = 0; i < n; ++i, b = b + 1 == bins ? 0 : b + 1) {
    folded[b] += x[i] + mean;
  }
  for (std::size_t b = 0; b < bins; ++b) {
    folded[b] /= static_cast<double>((n - 1 - b) / bins + 1);
    folded[bins + b] = folded[b];
  }

  const std::size_t win =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::round(
                                   config_.low_window_fraction * static_cast<double>(bins))));
  // Every window is summed afresh (not slid), so every window total is
  // rounded the same way whatever its offset.
  std::vector<double> window(bins);
  std::size_t off = window_sums<4>(folded.data(), win, 0, bins, window.data());
  off = window_sums<2>(folded.data(), win, off, bins, window.data());
  off = window_sums<1>(folded.data(), win, off, bins, window.data());
  for (; off < bins; ++off) {
    double sum = 0.0;
    for (std::size_t k = 0; k < win; ++k) sum += folded[off + k];
    window[off] = sum;
  }
  double best_sum = window[0];
  std::size_t best_off = 0;
  for (off = 1; off < bins; ++off) {
    if (window[off] < best_sum) {
      best_sum = window[off];
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
