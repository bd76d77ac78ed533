#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace wavm3::stats {

Summary summarize(std::span<const double> values) {
  Summary s;
  if (values.empty()) return s;
  OnlineStats acc;
  s.min = values.front();
  s.max = values.front();
  for (const double v : values) {
    acc.add(v);
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.count = acc.count();
  s.mean = acc.mean();
  s.variance = acc.variance();
  s.stddev = acc.stddev();
  return s;
}

double mean(std::span<const double> values) { return summarize(values).mean; }

double variance(const std::vector<double>& values) { return summarize(values).variance; }

double quantile(std::vector<double> values, double q) {
  WAVM3_REQUIRE(!values.empty(), "quantile of empty sample");
  WAVM3_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q must be in [0,1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

void OnlineStats::add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

}  // namespace wavm3::stats
