// The numeric kernels: blocked-4 scalar loops behind span-validated
// wrappers. The library compiles with -ffp-contract=off (see
// CMakeLists.txt), so no a*b+c below may become a differently-rounded
// FMA and trapezoid_panel() rounds exactly like the array panels.
#include "kernels/kernels.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace wavm3::kernels {

namespace {

/// Blocked-4 panel sum over n samples (n - 1 panels); timestamps are
/// validated non-decreasing by the callers.
double trapezoid_panels(const double* t, const double* y, std::size_t n) {
  if (n < 2) return 0.0;
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t panels = n - 1;
  for (std::size_t p = 0; p < panels; ++p) {
    acc[p & 3] += 0.5 * (y[p] + y[p + 1]) * (t[p + 1] - t[p]);
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

using Knot = WindowIndex::Knot;

/// interp_at()'s knot for t[hi - 1] <= x < t[hi].
Knot knot_below(std::span<const double> t, std::size_t hi, double x) {
  const std::size_t lo = hi - 1;
  return {lo, hi, (x - t[lo]) / (t[hi] - t[lo])};
}

Knot knot_at(std::span<const double> t, double x) {
  if (x <= t.front()) return {0, 0, 0.0};
  if (x >= t.back()) return {t.size() - 1, t.size() - 1, 0.0};
  // upper_bound: at a repeated timestamp the later sample wins (a
  // stalled meter followed by a step reads post-step at the step).
  const auto it = std::upper_bound(t.begin(), t.end(), x);
  return knot_below(t, static_cast<std::size_t>(it - t.begin()), x);
}

double value_at(const Knot& k, const double* y) {
  return k.lo == k.hi ? y[k.lo] : y[k.lo] * (1.0 - k.f) + y[k.hi] * k.f;
}

/// Area of a kSpan window: one interpolated panel when no sample lies
/// strictly inside, else left partial panel + blocked interior + right
/// partial panel, summed in that fixed order.
double span_area(const WindowIndex& w, const double* t, const double* y) {
  const double ya = value_at(w.at_a, y);
  const double yb = value_at(w.at_b, y);
  if (w.first >= w.last) return trapezoid_panel(w.a, ya, w.b, yb);
  double area = trapezoid_panel(w.a, ya, t[w.first], y[w.first]);
  area += trapezoid_panels(t + w.first, y + w.first, w.last - w.first);
  area += trapezoid_panel(t[w.last - 1], y[w.last - 1], w.b, yb);
  return area;
}

void require_indexed(const WindowIndex& w, std::span<const double> t,
                     std::span<const double> y) {
  WAVM3_REQUIRE(t.size() == w.n, "window: time axis does not match the window index");
  WAVM3_REQUIRE(y.size() == w.n, "window: time/value size mismatch");
}

}  // namespace

double dot(std::span<const double> a, std::span<const double> b) {
  WAVM3_REQUIRE(a.size() == b.size(), "kernels: dot size mismatch");
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) acc[i & 3] += a[i] * b[i];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

void axpy(double a, std::span<const double> x, std::span<double> y) {
  WAVM3_REQUIRE(x.size() == y.size(), "kernels: axpy size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += a * x[i];
}

void apply_design_matrix(std::span<const std::span<const double>> columns,
                         std::span<const double> coeffs, double bias,
                         std::span<double> out) {
  WAVM3_REQUIRE(columns.size() == coeffs.size(),
                "kernels: apply_design_matrix column/coefficient count mismatch");
  WAVM3_REQUIRE(columns.size() <= kMaxApplyColumns,
                "kernels: apply_design_matrix design too wide");
  const double* col_ptrs[kMaxApplyColumns];
  for (std::size_t j = 0; j < columns.size(); ++j) {
    WAVM3_REQUIRE(columns[j].size() == out.size(),
                  "kernels: apply_design_matrix column/output size mismatch");
    col_ptrs[j] = columns[j].data();
  }
  const std::size_t ncols = columns.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ncols; ++j) acc += coeffs[j] * col_ptrs[j][i];
    out[i] = bias == 0.0 ? acc : acc + bias;
  }
}

double trapezoid(std::span<const double> t, std::span<const double> y) {
  WAVM3_REQUIRE(t.size() == y.size(), "trapezoid: time/value size mismatch");
  if (t.size() < 2) return 0.0;
  for (std::size_t i = 1; i < t.size(); ++i) {
    WAVM3_REQUIRE(t[i] >= t[i - 1], "trapezoid: timestamps must be non-decreasing");
  }
  return trapezoid_panels(t.data(), y.data(), t.size());
}

double trapezoid_panel(double t0, double y0, double t1, double y1) {
  // Must stay out-of-line in this -ffp-contract=off TU — see the
  // header. Expression order matches trapezoid_panels().
  return 0.5 * (y0 + y1) * (t1 - t0);
}

double interp_at(std::span<const double> t, std::span<const double> y, double x) {
  WAVM3_REQUIRE(t.size() == y.size(), "interp_at: time/value size mismatch");
  WAVM3_REQUIRE(!t.empty(), "interp_at: empty trace");
  return value_at(knot_at(t, x), y.data());
}

WindowIndex window_index(std::span<const double> t, double t0, double t1) {
  WindowIndex w;
  w.n = t.size();
  if (w.n == 0) return w;
  if (w.n == 1) {
    w.overlap = WindowIndex::Overlap::kPoint;  // at_a is the one sample
    return w;
  }
  w.a = std::max(t0, t.front());
  w.b = std::min(t1, t.back());
  if (w.b < w.a) return w;
  if (w.b == w.a) {
    // Zero-width overlap: the window degenerates to a point sample.
    w.overlap = WindowIndex::Overlap::kPoint;
    w.at_a = knot_at(t, w.a);
    return w;
  }
  w.overlap = WindowIndex::Overlap::kSpan;
  // Interior samples strictly inside (a, b): [upper_bound(a),
  // lower_bound(b)), so duplicate-timestamp boundaries resolve as in
  // trapezoid(). upper_bound(a) is also interp_at(a)'s upper neighbour
  // (a < b <= t.back()), and interp_at(b)'s is the first sample after
  // the duplicates of b at lower_bound(b), found by a short scan.
  const auto fit = std::upper_bound(t.begin(), t.end(), w.a);
  const auto lit = std::lower_bound(fit, t.end(), w.b);
  w.first = static_cast<std::size_t>(fit - t.begin());
  w.last = static_cast<std::size_t>(lit - t.begin());
  if (w.a > t.front()) w.at_a = knot_below(t, w.first, w.a);
  if (w.b >= t.back()) {
    w.at_b = {w.n - 1, w.n - 1, 0.0};
  } else {
    std::size_t hi = w.last;
    while (t[hi] <= w.b) ++hi;  // ends before t.back() > b
    w.at_b = knot_below(t, hi, w.b);
  }
  return w;
}

double window_trapezoid(const WindowIndex& w, std::span<const double> t,
                        std::span<const double> y) {
  require_indexed(w, t, y);
  if (w.overlap != WindowIndex::Overlap::kSpan) return 0.0;
  return span_area(w, t.data(), y.data());
}

double window_mean(const WindowIndex& w, std::span<const double> t,
                   std::span<const double> y) {
  require_indexed(w, t, y);
  switch (w.overlap) {
    case WindowIndex::Overlap::kNone:
      return 0.0;
    case WindowIndex::Overlap::kPoint:
      return value_at(w.at_a, y.data());
    case WindowIndex::Overlap::kSpan:
      break;
  }
  return span_area(w, t.data(), y.data()) / (w.b - w.a);
}

double window_trapezoid(std::span<const double> t, std::span<const double> y,
                        double t0, double t1) {
  WAVM3_REQUIRE(t.size() == y.size(), "window_trapezoid: time/value size mismatch");
  WAVM3_REQUIRE(t1 >= t0, "window_trapezoid: inverted window");
  return window_trapezoid(window_index(t, t0, t1), t, y);
}

double window_mean(std::span<const double> t, std::span<const double> y,
                   double t0, double t1) {
  return window_mean(window_index(t, t0, t1), t, y);
}

void Scratch::require(std::size_t doubles) {
  if (buf_.size() < doubles) buf_.resize(doubles);
}

std::span<double> Scratch::take(std::size_t n) {
  WAVM3_REQUIRE(used_ + n <= buf_.size(),
                "kernels: scratch overflow — require() the worst case first");
  std::span<double> s(buf_.data() + used_, n);
  used_ += n;
  return s;
}

}  // namespace wavm3::kernels
