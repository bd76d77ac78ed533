#include "workloads/load_profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wavm3::workloads {

LoadProfile LoadProfile::constant(double fraction) {
  WAVM3_REQUIRE(fraction >= 0.0 && fraction <= 1.0, "fraction must be in [0,1]");
  LoadProfile p;
  p.points_ = {{0.0, fraction}};
  return p;
}

LoadProfile LoadProfile::steps(std::vector<LoadPoint> points, double period) {
  WAVM3_REQUIRE(!points.empty(), "profile needs at least one point");
  WAVM3_REQUIRE(points.front().time == 0.0, "profile must start at time 0");
  for (std::size_t i = 0; i < points.size(); ++i) {
    WAVM3_REQUIRE(points[i].fraction >= 0.0 && points[i].fraction <= 1.0,
                  "fractions must be in [0,1]");
    if (i > 0) WAVM3_REQUIRE(points[i].time > points[i - 1].time, "times must increase");
  }
  if (period > 0.0) {
    WAVM3_REQUIRE(period > points.back().time, "period must exceed the last breakpoint");
  }
  LoadProfile p;
  p.points_ = std::move(points);
  p.period_ = period;
  return p;
}

LoadProfile LoadProfile::diurnal(double low, double high, double period, double phase,
                                 int steps_per_cycle) {
  WAVM3_REQUIRE(low >= 0.0 && high <= 1.0 && low <= high, "need 0 <= low <= high <= 1");
  WAVM3_REQUIRE(period > 0.0 && steps_per_cycle >= 2, "bad diurnal parameters");
  std::vector<LoadPoint> points;
  points.reserve(static_cast<std::size_t>(steps_per_cycle));
  for (int i = 0; i < steps_per_cycle; ++i) {
    const double t = period * i / steps_per_cycle;
    const double angle = 2.0 * M_PI * (t + phase) / period;
    const double f = low + (high - low) * 0.5 * (1.0 - std::cos(angle));
    points.push_back({t, f});
  }
  return steps(std::move(points), period);
}

double LoadProfile::fraction_at(double t) const {
  WAVM3_REQUIRE(t >= 0.0, "time must be nonnegative");
  double local = t;
  if (period_ > 0.0) local = std::fmod(t, period_);
  // Last breakpoint at or before `local`.
  const auto it = std::upper_bound(
      points_.begin(), points_.end(), local,
      [](double value, const LoadPoint& p) { return value < p.time; });
  if (it == points_.begin()) return points_.front().fraction;
  return (it - 1)->fraction;
}

}  // namespace wavm3::workloads
