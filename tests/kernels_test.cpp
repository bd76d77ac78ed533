// Golden suite for src/kernels/: the fixed-reduction-order contract
// (results BIT-identical to independent reference loops, not merely
// close), the indexed trapezoid windows, the streaming
// PanelAccumulator, and the grow-only Scratch arena.
//
// This file compiles with -ffp-contract=off (tests/CMakeLists.txt) so
// the independent reference implementations below cannot be fused into
// FMA and silently diverge from the library's non-fused contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "kernels/kernels.hpp"
#include "util/error.hpp"

namespace wavm3::kernels {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

#define EXPECT_BITEQ(a, b) \
  EXPECT_EQ(bits(a), bits(b)) << "values: " << (a) << " vs " << (b)

// Lengths around the blocked-4 partition (and its multiples); 0 and 1
// are the degenerate reductions.
const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 63, 64, 65, 127, 1023};

/// Uniform values spanning magnitudes, both signs.
std::vector<double> random_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mag(-6.0, 6.0);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = unit(rng) * std::pow(10.0, mag(rng));
  return out;
}

/// Subnormals: the gradual-underflow range a flush-to-zero mode would
/// silently change.
std::vector<double> denormal_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (double& v : out) v = unit(rng) * 1e-310;
  return out;
}

/// Alternating huge cancelling terms plus a small signal: any
/// reassociation shows up as a different rounding of the catastrophic
/// cancellation.
std::vector<double> cancel_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (i % 2 == 0 ? 1e16 : -1e16) + unit(rng);
  }
  return out;
}

/// Non-decreasing timestamps with occasional duplicates (zero-width
/// panels), starting at a non-zero epoch.
std::vector<double> time_vec(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> step(0.0, 1.0);
  std::vector<double> out(n);
  double t = 17.25;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = t;
    if (step(rng) > 0.15) t += step(rng);  // ~15% duplicates
  }
  return out;
}

using Maker = std::vector<double> (*)(std::size_t, std::uint64_t);
const Maker kValueMakers[] = {random_vec, denormal_vec, cancel_vec};

// ---- the contract itself, re-implemented independently ----

double ref_dot(std::span<const double> a, std::span<const double> b) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc[i % 4] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

double ref_trapezoid(std::span<const double> t, std::span<const double> y) {
  if (t.size() < 2) return 0.0;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t p = 0; p + 1 < t.size(); ++p) {
    acc[p % 4] += 0.5 * (y[p] + y[p + 1]) * (t[p + 1] - t[p]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

// The windowed integral and mean as plain searches and panel sums:
// interp_at at both ends, the interior [upper_bound(a), lower_bound(b)),
// and left panel + blocked interior + right panel in that order.
double ref_interp_at(std::span<const double> t, std::span<const double> y, double x) {
  if (x <= t.front()) return y.front();
  if (x >= t.back()) return y.back();
  const std::size_t hi =
      static_cast<std::size_t>(std::upper_bound(t.begin(), t.end(), x) - t.begin());
  const std::size_t lo = hi - 1;
  const double f = (x - t[lo]) / (t[hi] - t[lo]);
  return y[lo] * (1.0 - f) + y[hi] * f;
}

double ref_window_trapezoid(std::span<const double> t, std::span<const double> y, double t0,
                            double t1) {
  if (t.size() < 2) return 0.0;
  const double a = std::max(t0, t.front());
  const double b = std::min(t1, t.back());
  if (b <= a) return 0.0;
  const double ya = ref_interp_at(t, y, a);
  const double yb = ref_interp_at(t, y, b);
  const std::size_t fi =
      static_cast<std::size_t>(std::upper_bound(t.begin(), t.end(), a) - t.begin());
  const std::size_t li =
      static_cast<std::size_t>(std::lower_bound(t.begin(), t.end(), b) - t.begin());
  if (fi >= li) return 0.5 * (ya + yb) * (b - a);
  double area = 0.5 * (ya + y[fi]) * (t[fi] - a);
  area += ref_trapezoid(t.subspan(fi, li - fi), y.subspan(fi, li - fi));
  area += 0.5 * (y[li - 1] + yb) * (b - t[li - 1]);
  return area;
}

double ref_window_mean(std::span<const double> t, std::span<const double> y, double t0,
                       double t1) {
  if (t.size() < 2) return t.size() == 1 ? y.front() : 0.0;
  const double a = std::max(t0, t.front());
  const double b = std::min(t1, t.back());
  if (b <= a) return b == a ? ref_interp_at(t, y, a) : 0.0;
  return ref_window_trapezoid(t, y, t0, t1) / (b - a);
}

// ---- contract pinning: kernels == independent references ----

TEST(KernelContract, DotIsBlocked4) {
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      const std::vector<double> a = make(n, 11 + n);
      const std::vector<double> b = make(n, 23 + n);
      EXPECT_BITEQ(dot(a, b), ref_dot(a, b)) << "n=" << n;
    }
  }
}

TEST(KernelContract, TrapezoidIsBlocked4PanelSum) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> t = time_vec(n, 31 + n);
    for (const Maker make : kValueMakers) {
      const std::vector<double> y = make(n, 47 + n);
      EXPECT_BITEQ(trapezoid(t, y), ref_trapezoid(t, y)) << "n=" << n;
    }
  }
}

TEST(KernelContract, ApplyBiasAddedLastAndSkippedWhenZero) {
  const std::vector<double> col = random_vec(33, 5);
  const std::vector<double> out0 = [&] {
    std::vector<double> out(col.size());
    const std::span<const double> cols[] = {col};
    const double coeffs[] = {3.5};
    apply_design_matrix(cols, coeffs, 0.0, out);
    return out;
  }();
  std::vector<double> outb(col.size());
  const std::span<const double> cols[] = {col};
  const double coeffs[] = {3.5};
  apply_design_matrix(cols, coeffs, 7.25, outb);
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_BITEQ(out0[i], 3.5 * col[i]);
    EXPECT_BITEQ(outb[i], 3.5 * col[i] + 7.25);
  }
}

TEST(KernelContract, AxpyRoundsProductThenAdds) {
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      const std::vector<double> x = make(n, 307 + n);
      std::vector<double> y = make(n, 401 + n);
      const std::vector<double> y0 = y;
      axpy(1.75, x, y);
      for (std::size_t i = 0; i < n; ++i) {
        const double product = 1.75 * x[i];
        EXPECT_BITEQ(y[i], y0[i] + product) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(KernelContract, ApplyAccumulatesColumnsInAscendingOrder) {
  // The serving shape: 11 columns (WAVM3's full design) at every size.
  constexpr std::size_t kCols = 11;
  for (const std::size_t n : kSizes) {
    for (const Maker make : kValueMakers) {
      std::vector<std::vector<double>> storage;
      storage.reserve(kCols);
      std::vector<std::span<const double>> cols;
      for (std::size_t j = 0; j < kCols; ++j) {
        storage.push_back(make(n, 1000 + 17 * j + n));
        cols.emplace_back(storage.back());
      }
      const std::vector<double> coeffs = random_vec(kCols, 77 + n);
      for (const double bias : {0.0, 3.25}) {
        std::vector<double> out(n);
        apply_design_matrix(cols, coeffs, bias, out);
        for (std::size_t i = 0; i < n; ++i) {
          double acc = 0.0;
          for (std::size_t j = 0; j < kCols; ++j) acc += coeffs[j] * storage[j][i];
          EXPECT_BITEQ(out[i], bias == 0.0 ? acc : acc + bias) << "n=" << n << " i=" << i;
        }
      }
    }
  }
}

// ---- streaming twin ----

TEST(PanelAccumulator, ReproducesTrapezoidBitExact) {
  for (const std::size_t n : kSizes) {
    const std::vector<double> t = time_vec(n, 701 + n);
    for (const Maker make : kValueMakers) {
      const std::vector<double> y = make(n, 809 + n);
      PanelAccumulator acc;
      for (std::size_t p = 0; p + 1 < n; ++p) {
        acc.add(trapezoid_panel(t[p], y[p], t[p + 1], y[p + 1]));
      }
      EXPECT_BITEQ(acc.sum(), trapezoid(t, y)) << "n=" << n;
      EXPECT_EQ(acc.panels(), n < 2 ? 0 : n - 1);
    }
  }
}

TEST(PanelAccumulator, ResetStartsOver) {
  PanelAccumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  acc.reset();
  EXPECT_EQ(acc.panels(), 0u);
  EXPECT_BITEQ(acc.sum(), 0.0);
}

// ---- indexed windows ----

struct WindowCase {
  const char* what;
  std::vector<double> t;
  double t0;
  double t1;
};

std::vector<double> grid(std::size_t n, double step) {
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i) t[i] = static_cast<double>(i) * step;
  return t;
}

std::vector<WindowCase> window_cases() {
  const std::vector<double> g = grid(21, 60.0);  // 0 .. 1200 s
  const std::vector<double> dup = {0.0, 10.0, 20.0, 20.0, 20.0, 30.0, 40.0, 40.0, 50.0};
  return {
      {"before the first sample", g, -500.0, -100.0},
      {"after the last sample", g, 1300.0, 1700.0},
      {"straddles the start", g, -100.0, 150.0},
      {"straddles the end", g, 1050.0, 1300.0},
      {"straddles both ends", g, -1e6, 1e6},
      {"touches the start", g, -100.0, 0.0},
      {"touches the end", g, 1200.0, 1300.0},
      {"inside one panel", g, 61.0, 119.0},
      {"one whole panel", g, 60.0, 120.0},
      {"zero width on a sample", g, 120.0, 120.0},
      {"zero width between samples", g, 130.0, 130.0},
      {"zero width on the first sample", g, 0.0, 0.0},
      {"zero width on the last sample", g, 1200.0, 1200.0},
      {"fractional boundaries", g, 61.5, 1000.25},
      {"fractional boundaries, narrow", g, 179.999, 240.001},
      {"trailing hour of the grid", grid(481, 60.0), 25200.0, 28800.0},
      {"trailing hour, offset", grid(481, 60.0), 23965.5, 27565.5},
      {"duplicates at both boundaries", dup, 20.0, 40.0},
      {"duplicate at the left boundary", dup, 20.0, 35.0},
      {"duplicate at the right boundary", dup, 15.0, 40.0},
      {"zero width on a duplicate", dup, 20.0, 20.0},
      {"between duplicates", dup, 20.0, 30.0},
      {"duplicate first samples", {3.0, 3.0, 3.0, 7.0}, 0.0, 5.0},
      {"duplicate last samples", {3.0, 7.0, 7.0, 7.0}, 5.0, 9.0},
      {"no samples", {}, 0.0, 10.0},
      {"no samples, zero width", {}, 4.0, 4.0},
      {"one sample, window around it", {5.0}, 0.0, 10.0},
      {"one sample, window past it", {5.0}, 8.0, 10.0},
      {"two samples, inside", {5.0, 9.0}, 6.0, 8.5},
      {"two samples, all of it", {5.0, 9.0}, 0.0, 10.0},
      {"two samples, zero width", {5.0, 9.0}, 7.0, 7.0},
      {"two samples, past the end", {5.0, 9.0}, 10.0, 11.0},
      {"two equal timestamps", {5.0, 5.0}, 0.0, 10.0},
  };
}

/// Every form of the window kernels against the plain references,
/// bit for bit.
void expect_window_forms_match(std::span<const double> t, std::span<const double> y, double t0,
                               double t1, const std::string& what) {
  const WindowIndex w = window_index(t, t0, t1);
  EXPECT_BITEQ(window_mean(w, t, y), ref_window_mean(t, y, t0, t1)) << what;
  EXPECT_BITEQ(window_mean(t, y, t0, t1), ref_window_mean(t, y, t0, t1)) << what;
  EXPECT_BITEQ(window_trapezoid(w, t, y), ref_window_trapezoid(t, y, t0, t1)) << what;
  if (t1 >= t0) {
    EXPECT_BITEQ(window_trapezoid(t, y, t0, t1), ref_window_trapezoid(t, y, t0, t1)) << what;
  }
}

TEST(KernelWindow, IndexedFormsMatchThePlainWindowComputation) {
  for (const WindowCase& c : window_cases()) {
    for (const Maker make : kValueMakers) {
      const std::vector<double> y = make(c.t.size(), 71 + c.t.size());
      expect_window_forms_match(c.t, y, c.t0, c.t1, c.what);
    }
  }
}

TEST(KernelWindow, RandomWindowsOverDuplicatedTimesMatch) {
  // time_vec repeats ~15% of its timestamps; windows start and end on
  // samples (often duplicated ones), between them, and beyond the
  // extent, and a few are inverted (window_mean only).
  std::mt19937_64 rng(97);
  for (const std::size_t n : kSizes) {
    const std::vector<double> t = time_vec(n, 53 + n);
    const std::vector<double> y = random_vec(n, 59 + n);
    const double lo = n == 0 ? 0.0 : t.front() - 1.0;
    const double hi = n == 0 ? 1.0 : t.back() + 1.0;
    std::uniform_real_distribution<double> at(lo, hi);
    std::uniform_int_distribution<std::size_t> pick(0, n == 0 ? 0 : n - 1);
    for (int k = 0; k < 200; ++k) {
      double t0 = at(rng);
      double t1 = at(rng);
      if (n > 0 && k % 3 == 0) t0 = t[pick(rng)];
      if (n > 0 && k % 4 == 0) t1 = t[pick(rng)];
      if (k % 17 != 0 && t1 < t0) std::swap(t0, t1);
      expect_window_forms_match(t, y, t0, t1, "n=" + std::to_string(n) + " k=" + std::to_string(k));
    }
  }
}

TEST(KernelWindow, InterpAtMatchesThePlainInterpolation) {
  const std::vector<double> dup = {0.0, 10.0, 20.0, 20.0, 20.0, 30.0, 40.0, 40.0, 50.0};
  const std::vector<double> y = random_vec(dup.size(), 3);
  for (const double x : {-1.0, 0.0, 5.0, 10.0, 19.5, 20.0, 25.0, 40.0, 45.0, 50.0, 60.0}) {
    EXPECT_BITEQ(interp_at(dup, y, x), ref_interp_at(dup, y, x)) << "x=" << x;
  }
}

TEST(KernelWindow, OneIndexServesEverySeriesOnItsAxis) {
  const std::vector<double> t = grid(481, 60.0);
  const std::vector<double> cpu = random_vec(t.size(), 5);
  const std::vector<double> dirty = cancel_vec(t.size(), 6);
  for (const double now : {28800.0, 28800.0 - 1234.5, 28800.0 - 20000.0, 28800.0 + 7200.0}) {
    const double t0 = now - 3600.0;
    const WindowIndex w = window_index(t, t0, now);
    EXPECT_BITEQ(window_mean(w, t, cpu), window_mean(t, cpu, t0, now)) << now;
    EXPECT_BITEQ(window_mean(w, t, dirty), window_mean(t, dirty, t0, now)) << now;
    EXPECT_BITEQ(window_trapezoid(w, t, cpu), window_trapezoid(t, cpu, t0, now)) << now;
    EXPECT_BITEQ(window_trapezoid(w, t, dirty), window_trapezoid(t, dirty, t0, now)) << now;
  }
}

TEST(KernelWindow, WindowMeanEdgeCases) {
  const std::vector<double> t = {0.0, 2.0};
  const std::vector<double> y = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(window_mean(t, y, 0.0, 2.0), 2.0);
  // Zero-width window degenerates to the interpolated value.
  EXPECT_DOUBLE_EQ(window_mean(t, y, 1.0, 1.0), 2.0);
  // Single-sample history: that sample is the mean.
  EXPECT_DOUBLE_EQ(window_mean(std::vector<double>{5.0}, std::vector<double>{7.0}, 0.0, 10.0),
                   7.0);
}

TEST(KernelWindow, RejectsSeriesOffTheIndexedAxis) {
  const std::vector<double> t = {0.0, 1.0, 2.0};
  const std::vector<double> y = {1.0, 2.0, 3.0};
  const std::vector<double> short_y = {1.0, 2.0};
  const WindowIndex w = window_index(t, 0.5, 1.5);
  EXPECT_THROW(window_mean(w, t, short_y), util::ContractError);
  EXPECT_THROW(window_trapezoid(w, t, short_y), util::ContractError);
  EXPECT_THROW(window_mean(w, std::span<const double>(t).first(2), short_y),
               util::ContractError);
  EXPECT_THROW(window_trapezoid(t, short_y, 0.5, 1.5), util::ContractError);
  EXPECT_THROW(window_trapezoid(t, y, 1.5, 0.5), util::ContractError);
}

// ---- input screening (same messages as the stats wrappers) ----

TEST(KernelScreening, RejectsMalformedInput) {
  const std::vector<double> t = {0.0, 1.0, 0.5};  // backwards
  const std::vector<double> y = {1.0, 1.0, 1.0};
  EXPECT_THROW(trapezoid(t, y), util::ContractError);
  const std::vector<double> short_y = {1.0};
  EXPECT_THROW(trapezoid(std::span<const double>(t).first(2), short_y),
               util::ContractError);
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_THROW(dot(a, b), util::ContractError);
  std::vector<double> out(2);
  EXPECT_THROW(axpy(1.0, b, out), util::ContractError);
}

TEST(KernelScreening, ApplyRejectsOverwideDesign) {
  const std::vector<double> col(4, 1.0);
  std::vector<std::span<const double>> cols(kMaxApplyColumns + 1,
                                            std::span<const double>(col));
  const std::vector<double> coeffs(cols.size(), 1.0);
  std::vector<double> out(col.size());
  EXPECT_THROW(apply_design_matrix(cols, coeffs, 0.0, out), util::ContractError);
}

// ---- scratch arena ----

TEST(Scratch, GrowOnlyReuse) {
  Scratch scratch;
  scratch.require(64);
  const std::size_t cap = scratch.capacity();
  EXPECT_GE(cap, 64u);
  const std::span<double> a = scratch.take(40);
  const std::span<double> b = scratch.take(24);
  EXPECT_EQ(a.size(), 40u);
  EXPECT_EQ(b.size(), 24u);
  EXPECT_EQ(scratch.used(), 64u);
  scratch.release_all();
  EXPECT_EQ(scratch.used(), 0u);
  EXPECT_EQ(scratch.capacity(), cap);  // release never shrinks
  scratch.require(32);                 // smaller requirement: no-op
  EXPECT_EQ(scratch.capacity(), cap);
}

TEST(Scratch, TakeBeyondCapacityRefuses) {
  Scratch scratch;
  scratch.require(8);
  (void)scratch.take(8);
  EXPECT_THROW(scratch.take(1), util::ContractError);
}

TEST(Scratch, TlsScratchIsStable) {
  Scratch& first = tls_scratch();
  Scratch& second = tls_scratch();
  EXPECT_EQ(&first, &second);
}

}  // namespace
}  // namespace wavm3::kernels
