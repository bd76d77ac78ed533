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
  if (x <= t.front()) return y.front();
  if (x >= t.back()) return y.back();
  // upper_bound: at a repeated timestamp the later sample wins (a
  // stalled meter followed by a step reads post-step at the step).
  const auto it = std::upper_bound(t.begin(), t.end(), x);
  const std::size_t hi = static_cast<std::size_t>(it - t.begin());
  const std::size_t lo = hi - 1;
  const double f = (x - t[lo]) / (t[hi] - t[lo]);  // t[lo] <= x < t[hi]
  return y[lo] * (1.0 - f) + y[hi] * f;
}

double window_trapezoid(std::span<const double> t, std::span<const double> y,
                        double t0, double t1) {
  WAVM3_REQUIRE(t.size() == y.size(), "window_trapezoid: time/value size mismatch");
  WAVM3_REQUIRE(t1 >= t0, "window_trapezoid: inverted window");
  if (t.size() < 2) return 0.0;
  const double a = std::max(t0, t.front());
  const double b = std::min(t1, t.back());
  if (b <= a) return 0.0;
  const double ya = interp_at(t, y, a);
  const double yb = interp_at(t, y, b);
  // Interior samples strictly inside (a, b): [upper_bound(a),
  // lower_bound(b)). Same bounds the panel walk used historically, so
  // duplicate-timestamp boundaries resolve identically.
  const auto fit = std::upper_bound(t.begin(), t.end(), a);
  const auto lit = std::lower_bound(fit, t.end(), b);
  const std::size_t fi = static_cast<std::size_t>(fit - t.begin());
  const std::size_t li = static_cast<std::size_t>(lit - t.begin());
  if (fi >= li) {
    // Window falls between two samples: one interpolated panel.
    return trapezoid_panel(a, ya, b, yb);
  }
  // Left partial panel + blocked interior + right partial panel,
  // summed in that fixed order.
  double area = trapezoid_panel(a, ya, t[fi], y[fi]);
  area += trapezoid_panels(t.data() + fi, y.data() + fi, li - fi);
  area += trapezoid_panel(t[li - 1], y[li - 1], b, yb);
  return area;
}

double window_mean(std::span<const double> t, std::span<const double> y,
                   double t0, double t1) {
  if (t.size() < 2) return t.size() == 1 ? y.front() : 0.0;
  const double a = std::max(t0, t.front());
  const double b = std::min(t1, t.back());
  if (b <= a) {
    // Zero-width overlap: the window degenerates to a point sample.
    if (b == a) return interp_at(t, y, a);
    return 0.0;
  }
  return window_trapezoid(t, y, t0, t1) / (b - a);
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

Scratch& tls_scratch() {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace wavm3::kernels
