// Numeric kernels: the one implementation of the dot / axpy /
// design-matrix-apply / trapezoid inner loops that the stats, models,
// stream, and serve layers all build on.
//
// ## Fixed-reduction-order contract
//
// Every reduction in this library — dot products and trapezoid panel
// sums — uses the same blocked-4 accumulation order:
//
//   double acc[4] = {0, 0, 0, 0};
//   for (i = 0; i < n; ++i) acc[i % 4] += term(i);
//   result = (acc[0] + acc[1]) + (acc[2] + acc[3]);
//
// Element-wise kernels (axpy, apply_design_matrix) have no cross-element
// reduction; their per-element operation order is fixed instead (see
// each function). The order is part of the API: callers that
// accumulate the same terms elsewhere (PanelAccumulator below, the
// stream layer's running aggregates) reproduce these results
// bit-for-bit, regression-pinned against independent reference loops
// by the golden suite in tests/kernels_test.cpp.
//
// The library compiles with -ffp-contract=off (src/kernels/CMakeLists.txt)
// so the compiler cannot fuse a*b+c into a differently-rounded
// fma(a,b,c).
//
// Streaming callers that cannot present a whole array use
// trapezoid_panel() + PanelAccumulator, whose add/finalize order is
// the same blocked-4 scheme — an accumulator fed the panels of
// trapezoid(t, y) left to right reproduces trapezoid(t, y) bit-for-bit
// (this is how src/stream/ keeps live extraction bit-identical to the
// batch FeatureBatch path by construction).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace wavm3::kernels {

/// Maximum column count apply_design_matrix accepts (generous: the
/// widest design in the repo is WAVM3's 11 phase-expanded terms).
inline constexpr std::size_t kMaxApplyColumns = 32;

/// Blocked-4 dot product of equally sized spans.
double dot(std::span<const double> a, std::span<const double> b);

/// y[i] += a * x[i], element-wise (a * x[i] rounded first, then one
/// add — never fused). Spans must be equal length; y must not alias x.
void axpy(double a, std::span<const double> x, std::span<double> y);

/// Fused design-matrix apply: out[i] = (sum_j coeffs[j] * columns[j][i]
/// accumulated in ascending j with the sum starting at 0.0) + bias,
/// with the bias added LAST and skipped entirely when bias == 0.0.
/// Term order and bias-last placement are part of the bit-parity
/// contract — the four energy models' predict paths reproduce their
/// historical per-row loops exactly through this call. `out` must not
/// alias any column; columns.size() == coeffs.size() <=
/// kMaxApplyColumns; every column has out.size() rows.
void apply_design_matrix(std::span<const std::span<const double>> columns,
                         std::span<const double> coeffs, double bias,
                         std::span<double> out);

/// Trapezoidal integral of y(t): the blocked-4 sum of panels
/// 0.5 * (y[p] + y[p+1]) * (t[p+1] - t[p]). Semantics are identical to
/// the stats::trapezoid wrapper (which now delegates here): times must
/// be non-decreasing (WAVM3_REQUIRE), fewer than two samples integrate
/// to 0, duplicate timestamps collapse to the last value.
double trapezoid(std::span<const double> t, std::span<const double> y);

/// One trapezoid panel, 0.5 * (y0 + y1) * (t1 - t0), evaluated with
/// exactly the operation order and rounding of trapezoid()'s panels.
/// Deliberately OUT-OF-LINE in a -ffp-contract=off TU: were it inlined
/// into a caller compiled with contraction enabled, the compiler could
/// fuse the panel product into the caller's accumulate and break
/// bit-parity with the array kernel.
double trapezoid_panel(double t0, double y0, double t1, double y1);

/// y at time x by linear interpolation, clamped to the sampled extent;
/// duplicate timestamps resolve to the later sample (upper_bound).
/// Same semantics as the stats::interp_at wrapper.
double interp_at(std::span<const double> t, std::span<const double> y, double x);

/// Where a window [t0, t1] falls on one time axis, searched once by
/// window_index() and then applied to any number of series sampled on
/// that axis (the planner reads a VM's CPU and dirtying means off one
/// shared axis). Holds the window clamped to the sampled extent
/// [a, b], the interior samples [first, last) strictly inside it
/// (upper_bound(a), lower_bound(b)) and interp_at()'s interpolation
/// knot at each end.
struct WindowIndex {
  /// What the clamped window covers.
  enum class Overlap : unsigned char {
    kNone,   ///< nothing: no samples, or the window misses the extent
    kPoint,  ///< one instant (b == a), or a one-sample axis
    kSpan,   ///< a positive width b - a
  };
  /// y at one boundary: y[lo] when lo == hi (clamped to an end of the
  /// extent), else y[lo] * (1 - f) + y[hi] * f, as interp_at() rounds it.
  struct Knot {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double f = 0.0;
  };

  std::size_t n = 0;  ///< samples on the axis
  Overlap overlap = Overlap::kNone;
  double a = 0.0;
  double b = 0.0;
  std::size_t first = 0;
  std::size_t last = 0;
  Knot at_a;  ///< kPoint's value; kSpan's left boundary
  Knot at_b;  ///< kSpan's right boundary
};

/// Searches time axis `t` for the window [t0, t1]. No ordering check:
/// times must be non-decreasing, as for every kernel here.
WindowIndex window_index(std::span<const double> t, double t0, double t1);

/// Trapezoid integral of y over an indexed window: left partial panel
/// + trapezoid() over the interior samples + right partial panel,
/// summed in that fixed order; a window inside one panel is the one
/// interpolated panel; kNone and kPoint integrate to 0. `t` is the
/// axis the index was built on; t and y must have w.n samples.
double window_trapezoid(const WindowIndex& w, std::span<const double> t,
                        std::span<const double> y);

/// Mean of y over an indexed window: window_trapezoid / (b - a) for
/// kSpan, the interpolated point sample for kPoint (the one sample of
/// a one-sample axis), 0 for kNone.
double window_mean(const WindowIndex& w, std::span<const double> t,
                   std::span<const double> y);

/// window_trapezoid() over window_index(t, t0, t1); requires equal
/// sizes and t1 >= t0. Duplicate-timestamp semantics match trapezoid()
/// and interp_at(). The stats::window_trapezoid wrapper calls this.
double window_trapezoid(std::span<const double> t, std::span<const double> y,
                        double t0, double t1);

/// window_mean() over window_index(t, t0, t1).
double window_mean(std::span<const double> t, std::span<const double> y,
                   double t0, double t1);

/// Streaming twin of trapezoid(): feed panels left to right and sum()
/// finalizes in the contract's fixed order, so an accumulator given
/// trapezoid_panel(t[p], y[p], t[p+1], y[p+1]) for p = 0..n-2 yields
/// exactly trapezoid(t, y). Methods are add-only and inline-safe (a
/// lone += cannot be contracted).
class PanelAccumulator {
 public:
  void add(double panel) { acc_[n_++ & 3] += panel; }
  double sum() const { return (acc_[0] + acc_[1]) + (acc_[2] + acc_[3]); }
  std::size_t panels() const { return n_; }
  void reset() {
    acc_[0] = acc_[1] = acc_[2] = acc_[3] = 0.0;
    n_ = 0;
  }

 private:
  double acc_[4] = {0.0, 0.0, 0.0, 0.0};
  std::size_t n_ = 0;
};

/// Grow-only double arena for allocation-free hot paths: require() the
/// worst-case footprint once (allocating only while the high-water
/// mark still grows — e.g. serve sizes it from batch_max_size during
/// warmup), then take() spans and release_all() per request with zero
/// heap traffic. take() never reallocates — it refuses (contract
/// violation) instead of invalidating previously taken spans.
class Scratch {
 public:
  /// Ensure capacity for `doubles` total; allocates only on growth.
  void require(std::size_t doubles);
  /// Carve `n` doubles from the arena. Aborts via WAVM3_REQUIRE if the
  /// arena was not require()d large enough.
  std::span<double> take(std::size_t n);
  /// Return every outstanding span to the arena (no destructor runs;
  /// the storage is reused by the next take()).
  void release_all() noexcept { used_ = 0; }
  std::size_t capacity() const noexcept { return buf_.size(); }
  std::size_t used() const noexcept { return used_; }

 private:
  std::vector<double> buf_;
  std::size_t used_ = 0;
};

/// Per-thread scratch arena shared by the model predict paths and the
/// serve workers — one warm arena per worker thread, sized by the
/// largest request it has seen.
Scratch& tls_scratch();

}  // namespace wavm3::kernels
