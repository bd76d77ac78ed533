#include "workloads/load_profile.hpp"

#include <algorithm>
#include <cmath>

#include <cstdlib>

#include "util/csv.hpp"
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

LoadProfile LoadProfile::from_csv(const std::string& path, double period) {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  WAVM3_REQUIRE(util::read_csv_file(path, header, rows), "cannot read profile CSV: " + path);
  WAVM3_REQUIRE(header.size() == 2 && header[0] == "time_s" && header[1] == "fraction",
                "profile CSV must have header time_s,fraction: " + path);
  std::vector<LoadPoint> points;
  points.reserve(rows.size());
  for (const auto& r : rows) {
    char* end = nullptr;
    const double t = std::strtod(r[0].c_str(), &end);
    WAVM3_REQUIRE(end != r[0].c_str(), "malformed time in profile CSV: " + r[0]);
    const double f = std::strtod(r[1].c_str(), &end);
    WAVM3_REQUIRE(end != r[1].c_str(), "malformed fraction in profile CSV: " + r[1]);
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

double LoadProfile::mean_fraction() const {
  if (points_.size() == 1) return points_.front().fraction;
  const double end = period_ > 0.0 ? period_ : points_.back().time + 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const double t0 = points_[i].time;
    const double t1 = i + 1 < points_.size() ? points_[i + 1].time : end;
    sum += points_[i].fraction * (t1 - t0);
  }
  return sum / end;
}

}  // namespace wavm3::workloads
