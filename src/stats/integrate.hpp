// Numerical integration shared by every consumer of sampled traces:
// the trapezoid rule over (time, value) pairs. One implementation
// serves models::MigrationObservation::observed_energy(), the power
// meter's PowerTrace, and the FeatureBatch column aggregation, so the
// quadrature cannot drift between layers.
#pragma once

#include <span>

namespace wavm3::stats {

/// True when the timestamps form a valid integration axis: every step
/// is finite and non-decreasing. Ingest paths that receive traces from
/// outside the process (online feedback, replayed logs) should screen
/// with this and reject the sample instead of integrating garbage.
bool is_non_decreasing(std::span<const double> t);

/// Trapezoidal integral of y(t) over the sampled points: sum of
/// 0.5 * (y[i-1] + y[i]) * (t[i] - t[i-1]). Times must be
/// non-decreasing — enforced with WAVM3_REQUIRE, since an out-of-order
/// timestamp silently flips the sign of a panel and corrupts the
/// energy integral. Untrusted callers screen first with
/// is_non_decreasing() and drop the sample. Fewer than two samples
/// integrate to 0.
///
/// Duplicate timestamps (t[i] == t[i-1]) are DEFINED to collapse to
/// the last value: the zero-width panel contributes exactly 0 to the
/// area, and the later sample becomes the left endpoint of the next
/// panel — i.e. y(t) is treated as jumping to the newest reading at
/// the repeated instant (a stalled meter followed by a step reads
/// post-step from the step on). interp_at() implements the same rule
/// via upper_bound, window_trapezoid() inherits it from both, and the
/// streaming IncrementalExtractor (src/stream/) reproduces it
/// bit-for-bit — regression-pinned in stats_test and stream_test.
double trapezoid(std::span<const double> t, std::span<const double> y);

/// y at time x by linear interpolation between the neighbouring
/// samples, clamped to the first/last value outside the sampled
/// extent. Times must be non-decreasing and non-empty.
double interp_at(std::span<const double> t, std::span<const double> y, double x);

/// Trapezoidal integral of y(t) restricted to the window [t0, t1]:
/// the window is clamped to the sampled extent and the boundary
/// values are linearly interpolated, so splitting an interval is
/// exact — window_trapezoid(a,c) == window_trapezoid(a,b) +
/// window_trapezoid(b,c). This wraps kernels::window_trapezoid, the
/// one implementation behind PowerTrace::energy_between and (through
/// kernels::window_mean) the planner's per-VM history windows; an
/// empty overlap (or fewer than two samples) yields 0.
/// Duplicate timestamps follow trapezoid()'s collapse-to-last rule:
/// repeated instants add zero area and a boundary landing exactly on
/// one interpolates with the newest reading.
double window_trapezoid(std::span<const double> t, std::span<const double> y,
                        double t0, double t1);

}  // namespace wavm3::stats
